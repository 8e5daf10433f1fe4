package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/triangle"
)

// propertyGraphs yields the generator mix the truss-invariant property
// tests run over: uniform random, clique-planted, and hub-skewed graphs.
func propertyGraphs(r *rand.Rand, trial int) *graph.Graph {
	switch trial % 3 {
	case 0:
		n := 15 + r.Intn(60)
		return randomGraph(r, n, 3*n+r.Intn(5*n))
	case 1:
		n := 30 + r.Intn(40)
		g := randomGraph(r, n, 2*n)
		var edges []graph.Edge
		edges = append(edges, g.Edges()...)
		size := 6 + r.Intn(8)
		base := uint32(r.Intn(n - size))
		for i := uint32(0); i < uint32(size); i++ {
			for j := i + 1; j < uint32(size); j++ {
				edges = append(edges, graph.Edge{U: base + i, V: base + j})
			}
		}
		return graph.FromEdges(edges)
	default:
		n := 40 + r.Intn(60)
		var edges []graph.Edge
		hub := uint32(0)
		for v := uint32(1); v < uint32(n); v++ {
			if r.Intn(3) > 0 {
				edges = append(edges, graph.Edge{U: hub, V: v})
			}
		}
		for i := 0; i < 4*n; i++ {
			edges = append(edges, graph.Edge{U: uint32(r.Intn(n)), V: uint32(r.Intn(n))})
		}
		return graph.FromEdges(edges)
	}
}

// TestPKTTrussInvariants property-checks the PKT output against the
// k-truss definition directly, independent of any other engine:
//
//   - support: every edge of class k closes >= k-2 triangles whose edges
//     all lie in T_k,
//   - nesting: T_k is a superset of T_{k+1} for every k,
//   - kmax: the maximum class is KMax and is non-empty, and the whole
//     result passes the definitional checker in verify.go.
func TestPKTTrussInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	trials := 18
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		g := propertyGraphs(r, trial)
		res := DecomposeParallel(g, 2+trial%7)
		m := g.NumEdges()

		// Support within T_k: count triangles restricted to the truss.
		for k := int32(3); k <= res.KMax; k++ {
			live := make([]bool, m)
			for id, p := range res.Phi {
				if p >= k {
					live[id] = true
				}
			}
			sup := supportsWithin(g, live)
			for id, p := range res.Phi {
				if p >= k && sup[id] < k-2 {
					t.Fatalf("trial %d: edge %v (phi %d) has %d < %d triangles within T_%d",
						trial, g.Edge(int32(id)), p, sup[id], k-2, k)
				}
			}
		}

		// Nesting: T_k ⊇ T_{k+1}, with strict shrink down to empty past
		// KMax.
		prev := res.TrussEdges(2)
		if len(prev) != m {
			t.Fatalf("trial %d: T_2 has %d edges, want all %d", trial, len(prev), m)
		}
		for k := int32(3); k <= res.KMax+1; k++ {
			cur := res.TrussEdges(k)
			in := make(map[int32]bool, len(prev))
			for _, e := range prev {
				in[e] = true
			}
			for _, e := range cur {
				if !in[e] {
					t.Fatalf("trial %d: edge %d in T_%d but not T_%d", trial, e, k, k-1)
				}
			}
			prev = cur
		}
		if res.KMax > 0 && len(res.Class(res.KMax)) == 0 {
			t.Fatalf("trial %d: kmax-class %d empty", trial, res.KMax)
		}
		if len(res.TrussEdges(res.KMax+1)) != 0 {
			t.Fatalf("trial %d: non-empty truss above kmax", trial)
		}

		// Full definitional check (membership + maximality) from
		// verify.go, plus the naive oracle.
		if err := Verify(res); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := EqualResults(DecomposeNaive(g), res); err != nil {
			t.Fatalf("trial %d vs naive oracle: %v", trial, err)
		}
	}
}

// TestPeelRegionKeepsExactPhi property-checks the restricted run: when phi
// is the exact decomposition of g, re-peeling any region against the rest
// frozen at phi must give phi back on the region, whatever the region held
// on entry, and report as boundary exactly the frozen edges that share a
// triangle with it, once each. A boundary edge that left a level early or
// late, or charged a triangle twice, would move some region edge's number.
// The every-edge region must also equal DecomposeParallel. On the
// planted-K48 RMAT graph the half region fans out every phase: the count
// phase, the frontiers, and the first frontier of level 48, where some
// 560 boundary edges of the clique leave.
func TestPeelRegionKeepsExactPhi(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	type input struct {
		name   string
		g      *graph.Graph
		fanOut bool
	}
	inputs := []input{{"fig2", graph.FromEdges(fig2Edges()), false}}
	for trial := 0; trial < 6; trial++ {
		inputs = append(inputs, input{fmt.Sprintf("property-%d", trial), propertyGraphs(r, trial), false})
	}
	inputs = append(inputs, input{"rmat-k48", gen.WithPlantedCliques(gen.RMAT(10, 8, 0.57, 0.19, 0.19, 71), []int{48}, 71), true})

	for _, in := range inputs {
		g, m := in.g, in.g.NumEdges()
		exact := Decompose(g).Phi
		perm := r.Perm(m)
		pick := func(n int) []int32 {
			out := make([]int32, n)
			for i := range out {
				out[i] = int32(perm[i])
			}
			return out
		}
		regions := []struct {
			name  string
			edges []int32
		}{{"empty", nil}, {"one", pick(1)}, {"10%", pick(m / 10)}, {"50%", pick(m / 2)}, {"all", pick(m)}}
		for _, rg := range regions {
			inR := make([]bool, m)
			for _, e := range rg.edges {
				inR[e] = true
			}
			var want []int32
			seen := make([]bool, m)
			triangle.ForEach(g, func(e1, e2, e3 int32) {
				if !inR[e1] && !inR[e2] && !inR[e3] {
					return
				}
				for _, f := range [3]int32{e1, e2, e3} {
					if !inR[f] && !seen[f] {
						seen[f] = true
						want = append(want, f)
					}
				}
			})
			slices.Sort(want)
			for _, workers := range []int{1, 2, 4} {
				name := fmt.Sprintf("%s, %s region, %d workers", in.name, rg.name, workers)
				phi := slices.Clone(exact)
				for _, e := range rg.edges {
					phi[e] = 0
				}
				peak := 0
				h := Hooks{OnRound: func(_ int32, n int) { peak = max(peak, n) }}
				boundary, fanned, err := PeelRegion(context.Background(), g, phi, rg.edges, workers, h)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for e := range phi {
					if phi[e] != exact[e] {
						t.Fatalf("%s: edge %v (in region %v) got phi %d, want %d", name, g.Edge(int32(e)), inR[e], phi[e], exact[e])
					}
				}
				got := slices.Sorted(slices.Values(boundary))
				if !slices.Equal(got, want) {
					t.Fatalf("%s: boundary %v, want %v", name, got, want)
				}
				if rg.name == "all" {
					if err := EqualResults(DecomposeParallel(g, workers), &Result{G: g, Phi: phi, KMax: slices.Max(phi)}); err != nil {
						t.Fatalf("%s vs DecomposeParallel: %v", name, err)
					}
				}
				if in.fanOut && rg.name == "50%" {
					perLevel := map[int32]int{}
					for _, f := range boundary {
						perLevel[exact[f]]++
					}
					retire := 0
					for _, n := range perLevel {
						retire = max(retire, n)
					}
					if len(rg.edges) < 256 || peak < 256 || retire < 256 {
						t.Fatalf("%s: region %d, peak frontier %d, largest retirement %d: a phase no longer reaches the fan-out size", name, len(rg.edges), peak, retire)
					}
					if fanned != (workers > 1) {
						t.Fatalf("%s: fanned = %v", name, fanned)
					}
				}
			}
		}
	}
}
