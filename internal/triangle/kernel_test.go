package triangle

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// kernelTestGraph builds a graph with a wide degree spectrum: a hub wired
// to most vertices, a mid-degree clique, and random filler.
func kernelTestGraph(r *rand.Rand, n int) *graph.Graph {
	var edges []graph.Edge
	for v := uint32(1); v < uint32(n); v++ {
		if r.Intn(4) > 0 {
			edges = append(edges, graph.Edge{U: 0, V: v})
		}
	}
	for i := uint32(10); i < 18; i++ {
		for j := i + 1; j < 18; j++ {
			edges = append(edges, graph.Edge{U: i, V: j})
		}
	}
	for i := 0; i < 5*n; i++ {
		edges = append(edges, graph.Edge{U: uint32(r.Intn(n)), V: uint32(r.Intn(n))})
	}
	return graph.FromEdges(edges)
}

func TestKernelLookupMatchesEdgeID(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	g := kernelTestGraph(r, 200)
	k := NewKernel(g)
	// Every present edge, through both endpoint orders.
	for id, e := range g.Edges() {
		for _, pair := range [][2]uint32{{e.U, e.V}, {e.V, e.U}} {
			got, ok := k.Lookup(pair[0], pair[1])
			if !ok || got != int32(id) {
				t.Fatalf("Lookup(%d,%d) = %d,%v want %d", pair[0], pair[1], got, ok, id)
			}
		}
	}
	// Absent pairs agree with the graph.
	nv := g.NumVertices()
	for i := 0; i < 5000; i++ {
		u, v := uint32(r.Intn(nv)), uint32(r.Intn(nv))
		wantID, want := g.EdgeID(u, v)
		gotID, got := k.Lookup(u, v)
		if want != got || (want && wantID != gotID) {
			t.Fatalf("Lookup(%d,%d) = %d,%v; EdgeID = %d,%v", u, v, gotID, got, wantID, want)
		}
	}
}

func TestKernelEmptyGraph(t *testing.T) {
	k := NewKernel(graph.NewBuilder(0).Build())
	if _, ok := k.Lookup(0, 1); ok {
		t.Fatal("lookup in empty kernel")
	}
}

// liveSet collects the triangles ForEachLive reports as unordered partner
// pairs, for cross-strategy comparison.
func liveSet(enum func(dead func(int32) bool, fn func(euw, evw int32)), dead func(int32) bool) map[string]int {
	out := map[string]int{}
	enum(dead, func(a, b int32) {
		if a > b {
			a, b = b, a
		}
		out[fmt.Sprintf("%d-%d", a, b)]++
	})
	return out
}

// TestKernelStrategiesEquivalent forces both strategies over every edge of
// the same graph — with and without a dead set — and demands identical
// triangle sets, multiplicity included.
func TestKernelStrategiesEquivalent(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	g := kernelTestGraph(r, 150)
	k := NewKernel(g)
	m := g.NumEdges()

	noDead := func(int32) bool { return false }
	someDead := func(e int32) bool { return e%3 == 0 }

	for _, dead := range []func(int32) bool{noDead, someDead} {
		for id, e := range g.Edges() {
			merge := liveSet(func(d func(int32) bool, fn func(a, b int32)) {
				ForEachMerge(g, e.U, e.V, d, fn)
			}, dead)
			probe := liveSet(func(d func(int32) bool, fn func(a, b int32)) {
				k.forEachLiveProbe(e.U, e.V, d, fn)
			}, dead)
			// The probe path iterates u's adjacency, the merge path both;
			// swap sides and the sets must still agree.
			probeSwapped := liveSet(func(d func(int32) bool, fn func(a, b int32)) {
				k.forEachLiveProbe(e.V, e.U, d, fn)
			}, dead)
			if len(merge) != len(probe) || len(merge) != len(probeSwapped) {
				t.Fatalf("edge %d %v: merge %d probe %d swapped %d triangles",
					id, e, len(merge), len(probe), len(probeSwapped))
			}
			for key, cnt := range merge {
				if probe[key] != cnt || probeSwapped[key] != cnt {
					t.Fatalf("edge %d %v: triangle %s seen %d/%d/%d times",
						id, e, key, cnt, probe[key], probeSwapped[key])
				}
			}
		}
		_ = m
	}
}

// TestKernelDispatchBoundary pins the ProbeSkew dispatch rule: degrees
// straddling the threshold choose the expected strategy.
func TestKernelDispatchBoundary(t *testing.T) {
	// Build controlled degrees: vertex A with degree ProbeSkew*dB (probe
	// regime, boundary inclusive), vertex C with one less (merge regime).
	const dB = 3
	var edges []graph.Edge
	next := uint32(100)
	addFan := func(center uint32, deg int) {
		for i := 0; i < deg; i++ {
			edges = append(edges, graph.Edge{U: center, V: next})
			next++
		}
	}
	// b--a where deg(a) = ProbeSkew*dB including the (a,b) edge itself.
	a, b := uint32(0), uint32(1)
	edges = append(edges, graph.Edge{U: a, V: b})
	addFan(a, ProbeSkew*dB-1)
	addFan(b, dB-1)
	// d--c where deg(c) = ProbeSkew*dB - 1.
	c, d := uint32(2), uint32(3)
	edges = append(edges, graph.Edge{U: c, V: d})
	addFan(c, ProbeSkew*dB-2)
	addFan(d, dB-1)
	g := graph.FromEdges(edges)
	if g.Degree(a) != ProbeSkew*dB || g.Degree(b) != dB || g.Degree(c) != ProbeSkew*dB-1 {
		t.Fatalf("fan construction off: deg(a)=%d deg(b)=%d deg(c)=%d",
			g.Degree(a), g.Degree(b), g.Degree(c))
	}

	k := NewKernel(g)
	none := func(int32) bool { return false }
	k.ForEachLive(a, b, none, func(int32, int32) {})
	if mg, pr := k.Dispatches(); mg != 0 || pr != 1 {
		t.Fatalf("skew exactly ProbeSkew: merges %d probes %d, want probe", mg, pr)
	}
	k.ForEachLive(c, d, none, func(int32, int32) {})
	if mg, pr := k.Dispatches(); mg != 1 || pr != 1 {
		t.Fatalf("skew below ProbeSkew: merges %d probes %d, want merge", mg, pr)
	}
	// Dispatch is symmetric in argument order.
	k.ForEachLive(b, a, none, func(int32, int32) {})
	if mg, pr := k.Dispatches(); mg != 1 || pr != 2 {
		t.Fatalf("swapped args changed dispatch: merges %d probes %d", mg, pr)
	}
}

// livePartners lists, per edge, the partner pairs of its triangles whose
// partners are both live, from the whole-graph ForEach: the independent
// reference every per-edge lister must reproduce. Pairs are ordered
// (smaller ID first) so they compare as a multiset.
func livePartners(g *graph.Graph, dead func(int32) bool) []map[[2]int32]int {
	want := make([]map[[2]int32]int, g.NumEdges())
	for id := range want {
		want[id] = map[[2]int32]int{}
	}
	add := func(e, a, b int32) {
		if dead(a) || dead(b) {
			return
		}
		want[e][[2]int32{min(a, b), max(a, b)}]++
	}
	ForEach(g, func(e1, e2, e3 int32) {
		add(e1, e2, e3)
		add(e2, e1, e3)
		add(e3, e1, e2)
	})
	return want
}

// checkLister compares one per-edge lister against livePartners for every
// edge of g.
func checkLister(t *testing.T, name string, g *graph.Graph, want []map[[2]int32]int, list func(u, v uint32, fn func(a, b int32))) {
	t.Helper()
	for id, e := range g.Edges() {
		got := map[[2]int32]int{}
		list(e.U, e.V, func(a, b int32) { got[[2]int32{min(a, b), max(a, b)}]++ })
		if !maps.Equal(got, want[id]) {
			t.Fatalf("%s: edge %d %v lists %v, whole-graph ForEach %v", name, id, e, got, want[id])
		}
	}
}

// TestKernelAgainstForEach checks the adaptive path end to end against
// the whole-graph enumerator on random graphs.
func TestKernelAgainstForEach(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < 10; trial++ {
		n := 20 + r.Intn(80)
		var edges []graph.Edge
		for i := 0; i < 6*n; i++ {
			edges = append(edges, graph.Edge{U: uint32(r.Intn(n)), V: uint32(r.Intn(n))})
		}
		g := graph.FromEdges(edges)
		k := NewKernel(g)
		checkLister(t, fmt.Sprintf("trial %d", trial), g, livePartners(g, NoneDead), func(u, v uint32, fn func(a, b int32)) {
			k.ForEachLive(u, v, NoneDead, fn)
		})
	}
}

// FuzzKernel holds every per-edge lister — the hashed and the searching
// kernel, and the merge on its own — to the whole-graph ForEach. The input
// decodes as (u, v, flags) byte triples: edge (u,v), dead when flags&1 is
// set in any of its triples. Byte-sized vertex IDs keep graphs small and
// let hubs pass ProbeSkew.
func FuzzKernel(f *testing.F) {
	seed := func(edges []graph.Edge, deadEvery int) []byte {
		var data []byte
		for i, e := range edges {
			flags := byte(0)
			if deadEvery > 0 && i%deadEvery == 0 {
				flags = 1
			}
			data = append(data, byte(e.U), byte(e.V), flags)
		}
		return data
	}
	// K4.
	f.Add(seed(clique(4).Edges(), 0))
	// A 5-clique whose vertex 0 also holds 40 leaves: degree 44 against 4
	// crosses ProbeSkew, so the hub's clique edges take the probe path.
	hub := clique(5).Edges()
	for v := uint32(5); v < 45; v++ {
		hub = append(hub, graph.Edge{U: 0, V: v})
	}
	f.Add(seed(hub, 3))
	// The paper's running example (Figure 2).
	f.Add(seed(gen.PaperExample().Edges(), 4))
	f.Fuzz(func(t *testing.T, data []byte) {
		var edges []graph.Edge
		deadKey := map[uint64]bool{}
		for i := 0; i+2 < len(data); i += 3 {
			e := graph.Edge{U: uint32(data[i]), V: uint32(data[i+1])}
			if e.U > e.V {
				e.U, e.V = e.V, e.U
			}
			edges = append(edges, e)
			if data[i+2]&1 == 1 {
				deadKey[e.Key()] = true
			}
		}
		g := graph.FromEdges(edges)
		deadID := make([]bool, g.NumEdges())
		for id, e := range g.Edges() {
			deadID[id] = deadKey[e.Key()]
		}
		dead := func(e int32) bool { return deadID[e] }
		want := livePartners(g, dead)
		hashed, search := NewKernel(g), NewSearchKernel(g)
		checkLister(t, "NewKernel", g, want, func(u, v uint32, fn func(a, b int32)) {
			hashed.ForEachLive(u, v, dead, fn)
		})
		checkLister(t, "NewSearchKernel", g, want, func(u, v uint32, fn func(a, b int32)) {
			search.ForEachLive(u, v, dead, fn)
		})
		checkLister(t, "ForEachMerge", g, want, func(u, v uint32, fn func(a, b int32)) {
			ForEachMerge(g, u, v, dead, fn)
		})
	})
}
