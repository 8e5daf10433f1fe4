package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/kcore"
	"repro/internal/triangle"
)

// fig2Edges reconstructs the Figure 2 running example exactly from the
// k-classes listed in Example 2 of the paper (vertices a..l = 0..11).
func fig2Edges() []graph.Edge {
	return []graph.Edge{
		{U: 8, V: 10}, // Phi2: (i,k)
		// Phi3: (d,g),(d,k),(d,l),(e,f),(e,g),(f,g),(g,h),(g,k),(g,l)
		{U: 3, V: 6}, {U: 3, V: 10}, {U: 3, V: 11}, {U: 4, V: 5}, {U: 4, V: 6},
		{U: 5, V: 6}, {U: 6, V: 7}, {U: 6, V: 10}, {U: 6, V: 11},
		// Phi4: (f,h),(f,i),(f,j),(h,i),(h,j),(i,j)
		{U: 5, V: 7}, {U: 5, V: 8}, {U: 5, V: 9}, {U: 7, V: 8}, {U: 7, V: 9}, {U: 8, V: 9},
		// Phi5: clique {a,b,c,d,e}
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4}, {U: 1, V: 2},
		{U: 1, V: 3}, {U: 1, V: 4}, {U: 2, V: 3}, {U: 2, V: 4}, {U: 3, V: 4},
	}
}

// fig2Phi returns the expected truss number keyed by canonical edge.
func fig2Phi() map[uint64]int32 {
	want := map[uint64]int32{}
	set := func(u, v uint32, k int32) { want[(graph.Edge{U: u, V: v}).Key()] = k }
	set(8, 10, 2)
	for _, e := range [][2]uint32{{3, 6}, {3, 10}, {3, 11}, {4, 5}, {4, 6}, {5, 6}, {6, 7}, {6, 10}, {6, 11}} {
		set(e[0], e[1], 3)
	}
	for _, e := range [][2]uint32{{5, 7}, {5, 8}, {5, 9}, {7, 8}, {7, 9}, {8, 9}} {
		set(e[0], e[1], 4)
	}
	for _, e := range [][2]uint32{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}} {
		set(e[0], e[1], 5)
	}
	return want
}

func checkAgainstFig2(t *testing.T, name string, r *Result) {
	t.Helper()
	want := fig2Phi()
	if r.KMax != 5 {
		t.Fatalf("%s: kmax = %d, want 5", name, r.KMax)
	}
	for id, p := range r.Phi {
		e := r.G.Edge(int32(id))
		if want[e.Key()] != p {
			t.Fatalf("%s: edge %v phi = %d, want %d", name, e, p, want[e.Key()])
		}
	}
}

func TestPaperExampleClasses(t *testing.T) {
	g := graph.FromEdges(fig2Edges())
	checkAgainstFig2(t, "Decompose", Decompose(g))
	checkAgainstFig2(t, "DecomposeBaseline", DecomposeBaseline(g))
	checkAgainstFig2(t, "DecomposeNaive", DecomposeNaive(g))
}

func TestPaperExampleClassSizes(t *testing.T) {
	g := graph.FromEdges(fig2Edges())
	r := Decompose(g)
	sizes := r.ClassSizes()
	want := []int64{0, 0, 1, 9, 6, 10}
	if len(sizes) != len(want) {
		t.Fatalf("sizes = %v", sizes)
	}
	for k := range want {
		if sizes[k] != want[k] {
			t.Fatalf("|Phi_%d| = %d, want %d", k, sizes[k], want[k])
		}
	}
	if len(r.Class(2)) != 1 || len(r.Class(5)) != 10 {
		t.Fatal("Class extraction wrong")
	}
}

func TestPaperExampleTrusses(t *testing.T) {
	g := graph.FromEdges(fig2Edges())
	r := Decompose(g)
	// T3 = Phi3+Phi4+Phi5 = 25 edges, T4 = 16, T5 = 10.
	for _, tc := range []struct {
		k    int32
		want int
	}{{2, 26}, {3, 25}, {4, 16}, {5, 10}, {6, 0}} {
		tr := r.Truss(tc.k)
		if tr.NumEdges() != tc.want {
			t.Fatalf("T_%d has %d edges, want %d", tc.k, tr.NumEdges(), tc.want)
		}
	}
	mt := r.MaxTruss()
	if mt.NumEdges() != 10 {
		t.Fatalf("max truss edges = %d", mt.NumEdges())
	}
}

func TestVerifyOnPaperExample(t *testing.T) {
	g := graph.FromEdges(fig2Edges())
	r := Decompose(g)
	if err := Verify(r); err != nil {
		t.Fatal(err)
	}
	// Corrupt the result; Verify must notice.
	r.Phi[0]++
	if err := Verify(r); err == nil {
		t.Fatal("Verify accepted corrupted phi")
	}
}

func TestEmptyAndTrivialGraphs(t *testing.T) {
	empty := graph.NewBuilder(0).Build()
	r := Decompose(empty)
	if r.KMax != 0 || len(r.Phi) != 0 {
		t.Fatal("empty graph")
	}
	if err := Verify(r); err != nil {
		t.Fatal(err)
	}
	// Single edge: phi = 2, kmax = 2.
	one := graph.FromEdges([]graph.Edge{{U: 0, V: 1}})
	r = Decompose(one)
	if r.KMax != 2 || r.Phi[0] != 2 {
		t.Fatalf("single edge: kmax=%d phi=%v", r.KMax, r.Phi)
	}
	// Triangle: every edge phi = 3.
	tri := graph.FromEdges([]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}})
	r = Decompose(tri)
	if r.KMax != 3 {
		t.Fatalf("triangle kmax = %d", r.KMax)
	}
	for _, p := range r.Phi {
		if p != 3 {
			t.Fatalf("triangle phi = %v", r.Phi)
		}
	}
}

func TestCliqueTrussNumbers(t *testing.T) {
	// Every edge of K_n has phi = n.
	for n := 3; n <= 9; n++ {
		var edges []graph.Edge
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				edges = append(edges, graph.Edge{U: uint32(i), V: uint32(j)})
			}
		}
		g := graph.FromEdges(edges)
		r := Decompose(g)
		if r.KMax != int32(n) {
			t.Fatalf("K_%d kmax = %d", n, r.KMax)
		}
		for _, p := range r.Phi {
			if p != int32(n) {
				t.Fatalf("K_%d phi = %v", n, r.Phi)
			}
		}
	}
}

func randomGraph(r *rand.Rand, n, m int) *graph.Graph {
	var edges []graph.Edge
	for i := 0; i < m; i++ {
		edges = append(edges, graph.Edge{U: uint32(r.Intn(n)), V: uint32(r.Intn(n))})
	}
	return graph.FromEdges(edges)
}

func TestAlgorithmsAgreeOnRandomGraphs(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		n := 4 + r.Intn(50)
		m := r.Intn(5 * n)
		g := randomGraph(r, n, m)
		a := Decompose(g)
		b := DecomposeBaseline(g)
		c := DecomposeNaive(g)
		if err := EqualResults(a, b); err != nil {
			t.Fatalf("trial %d (n=%d m=%d): Alg2 vs Alg1: %v", trial, n, g.NumEdges(), err)
		}
		if err := EqualResults(a, c); err != nil {
			t.Fatalf("trial %d: Alg2 vs naive: %v", trial, err)
		}
	}
}

func TestDecomposeVerifiesQuick(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw%30) + 4
		m := int(mRaw % 180)
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, n, m)
		return Verify(Decompose(g)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTrussContainedInCore(t *testing.T) {
	// Property from the paper (Sec 1): a k-truss is a (k-1)-core. So every
	// vertex of T_k must have core number >= k-1.
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(r, 40, 200)
		tr := Decompose(g)
		co := kcore.Decompose(g)
		for id, p := range tr.Phi {
			e := g.Edge(int32(id))
			if co.Core[e.U] < p-1 || co.Core[e.V] < p-1 {
				t.Fatalf("edge %v phi=%d but cores %d,%d",
					e, p, co.Core[e.U], co.Core[e.V])
			}
		}
		// And kmax <= cmax + 1.
		if tr.KMax > co.CMax+1 {
			t.Fatalf("kmax %d > cmax+1 %d", tr.KMax, co.CMax+1)
		}
	}
}

func TestPlantedCliqueHasHighTruss(t *testing.T) {
	// A planted K8 inside random noise must keep phi >= 8 on... phi == 8
	// exactly requires the noise not to reinforce it; we assert >= 8.
	r := rand.New(rand.NewSource(123))
	var edges []graph.Edge
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			edges = append(edges, graph.Edge{U: uint32(i), V: uint32(j)})
		}
	}
	for i := 0; i < 100; i++ {
		edges = append(edges, graph.Edge{U: uint32(r.Intn(40)), V: uint32(r.Intn(40))})
	}
	g := graph.FromEdges(edges)
	res := Decompose(g)
	for i := uint32(0); i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			id, ok := g.EdgeID(i, j)
			if !ok {
				t.Fatal("clique edge missing")
			}
			if res.Phi[id] < 8 {
				t.Fatalf("clique edge (%d,%d) phi = %d < 8", i, j, res.Phi[id])
			}
		}
	}
}

// aliveCount counts the edges of g that p has not removed.
func aliveCount(p *Peeler, g *graph.Graph) int {
	c := 0
	for id := 0; id < g.NumEdges(); id++ {
		if p.Alive(int32(id)) {
			c++
		}
	}
	return c
}

func TestPeelerRestrict(t *testing.T) {
	// Triangle + pendant edge; restrict removals to the pendant edge only.
	g := graph.FromEdges([]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 2, V: 3}})
	sup := triangle.Supports(g)
	p := NewPeeler(g, sup)
	removable := make([]bool, g.NumEdges())
	pid, _ := g.EdgeID(2, 3)
	removable[pid] = true
	p.Restrict(removable)
	removed := p.PeelTo(10) // huge threshold, but only the pendant is removable
	if len(removed) != 1 || removed[0] != pid {
		t.Fatalf("removed = %v, want [%d]", removed, pid)
	}
	if n := aliveCount(p, g); n != 3 {
		t.Fatalf("alive = %d, want 3", n)
	}
}

func TestPeelerCascade(t *testing.T) {
	// Two triangles sharing an edge: (0,1,2) and (1,2,3). Shared edge (1,2)
	// has support 2; others support 1. PeelTo(0) removes nothing;
	// PeelTo(1) cascades everything.
	g := graph.FromEdges([]graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}, {U: 1, V: 3}, {U: 2, V: 3},
	})
	p := NewPeeler(g, triangle.Supports(g))
	if got := p.PeelTo(0); len(got) != 0 {
		t.Fatalf("PeelTo(0) removed %v", got)
	}
	if got := p.PeelTo(1); len(got) != 5 {
		t.Fatalf("PeelTo(1) removed %d edges, want all 5", len(got))
	}
	if aliveCount(p, g) != 0 {
		t.Fatal("edges left alive")
	}
}

func TestClassMapAndTrussEdges(t *testing.T) {
	g := graph.FromEdges(fig2Edges())
	r := Decompose(g)
	cm := r.ClassMap()
	if len(cm) != 26 {
		t.Fatalf("ClassMap size = %d", len(cm))
	}
	if cm[(graph.Edge{U: 8, V: 10}).Key()] != 2 {
		t.Fatal("ClassMap wrong for (i,k)")
	}
	ids := r.TrussEdges(5)
	if len(ids) != 10 {
		t.Fatalf("TrussEdges(5) = %d", len(ids))
	}
}

func TestEqualResultsDetectsMismatch(t *testing.T) {
	g := graph.FromEdges(fig2Edges())
	a := Decompose(g)
	b := Decompose(g)
	if err := EqualResults(a, b); err != nil {
		t.Fatal(err)
	}
	b.Phi[3]++
	if err := EqualResults(a, b); err == nil {
		t.Fatal("EqualResults accepted differing phi")
	}
	small := Decompose(graph.FromEdges([]graph.Edge{{U: 0, V: 1}}))
	if err := EqualResults(a, small); err == nil {
		t.Fatal("EqualResults accepted differing sizes")
	}
}
