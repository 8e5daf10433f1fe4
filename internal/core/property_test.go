package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
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
