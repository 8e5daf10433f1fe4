package triangle

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func clique(n int) *graph.Graph {
	var edges []graph.Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, graph.Edge{U: uint32(i), V: uint32(j)})
		}
	}
	return graph.FromEdges(edges)
}

func path(n int) *graph.Graph {
	var edges []graph.Edge
	for i := 0; i+1 < n; i++ {
		edges = append(edges, graph.Edge{U: uint32(i), V: uint32(i + 1)})
	}
	return graph.FromEdges(edges)
}

func TestCountClique(t *testing.T) {
	// K_n has C(n,3) triangles.
	for n := 3; n <= 10; n++ {
		g := clique(n)
		want := int64(n * (n - 1) * (n - 2) / 6)
		if got := Count(g); got != want {
			t.Fatalf("K_%d: Count = %d, want %d", n, got, want)
		}
	}
}

func TestCountTriangleFree(t *testing.T) {
	if got := Count(path(10)); got != 0 {
		t.Fatalf("path: Count = %d", got)
	}
	// Star graph.
	var edges []graph.Edge
	for i := 1; i <= 8; i++ {
		edges = append(edges, graph.Edge{U: 0, V: uint32(i)})
	}
	if got := Count(graph.FromEdges(edges)); got != 0 {
		t.Fatalf("star: Count = %d", got)
	}
	// Empty graph.
	if got := Count(graph.NewBuilder(0).Build()); got != 0 {
		t.Fatalf("empty: Count = %d", got)
	}
}

func TestSupportsClique(t *testing.T) {
	// In K_n every edge is in n-2 triangles.
	g := clique(6)
	sup := Supports(g)
	for id, s := range sup {
		if s != 4 {
			t.Fatalf("edge %v support = %d, want 4", g.Edge(int32(id)), s)
		}
	}
}

func TestSupportsMatchesNaiveRandom(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := 3 + r.Intn(40)
		m := r.Intn(3 * n)
		var edges []graph.Edge
		for i := 0; i < m; i++ {
			edges = append(edges, graph.Edge{U: uint32(r.Intn(n)), V: uint32(r.Intn(n))})
		}
		g := graph.FromEdges(edges)
		fast := Supports(g)
		slow := SupportsNaive(g)
		for id := range fast {
			if fast[id] != slow[id] {
				t.Fatalf("trial %d edge %v: fast=%d naive=%d",
					trial, g.Edge(int32(id)), fast[id], slow[id])
			}
		}
	}
}

func TestForEachListsEachTriangleOnce(t *testing.T) {
	g := clique(5)
	seen := map[[3]int32]int{}
	ForEach(g, func(e1, e2, e3 int32) {
		k := [3]int32{e1, e2, e3}
		seen[k]++
	})
	if len(seen) != 10 {
		t.Fatalf("K_5: distinct triangles = %d, want 10", len(seen))
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("triangle %v listed %d times", k, c)
		}
	}
	// Each reported edge triple must actually form a triangle.
	ForEach(g, func(e1, e2, e3 int32) {
		vs := map[uint32]int{}
		for _, id := range []int32{e1, e2, e3} {
			e := g.Edge(id)
			vs[e.U]++
			vs[e.V]++
		}
		if len(vs) != 3 {
			t.Fatalf("edges %d,%d,%d do not form a triangle", e1, e2, e3)
		}
		for _, c := range vs {
			if c != 2 {
				t.Fatalf("vertex covered %d times in triangle", c)
			}
		}
	})
}

func TestSupportSumIsThreeTriangles(t *testing.T) {
	// Property: sum of supports == 3 * #triangles.
	f := func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw%30) + 3
		m := int(mRaw % 150)
		r := rand.New(rand.NewSource(seed))
		var edges []graph.Edge
		for i := 0; i < m; i++ {
			edges = append(edges, graph.Edge{U: uint32(r.Intn(n)), V: uint32(r.Intn(n))})
		}
		g := graph.FromEdges(edges)
		sup := Supports(g)
		var sum int64
		for _, s := range sup {
			sum += int64(s)
		}
		return sum == 3*Count(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestForEachMergeVisit(t *testing.T) {
	g := clique(4)
	var pairs [][2]int32
	ForEachMerge(g, 0, 1, NoneDead, func(a, b int32) { pairs = append(pairs, [2]int32{a, b}) })
	if len(pairs) != 2 {
		t.Fatalf("triangles of (0,1) in K4 = %d (%v)", len(pairs), pairs)
	}
	for _, p := range pairs {
		if g.Edge(p[0]).U != 0 || g.Edge(p[1]).U != 1 {
			t.Fatalf("partners %v not u-side first", p)
		}
	}
}

func TestLocalCounts(t *testing.T) {
	// Two triangles sharing vertex 0: (0,1,2) and (0,3,4).
	g := graph.FromEdges([]graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2},
		{U: 0, V: 3}, {U: 3, V: 4}, {U: 0, V: 4},
	})
	counts := LocalCounts(g)
	want := []int64{2, 1, 1, 1, 1}
	for v := range want {
		if counts[v] != want[v] {
			t.Fatalf("LocalCounts = %v, want %v", counts, want)
		}
	}
}

func TestLocalCountsSum(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	var edges []graph.Edge
	for i := 0; i < 300; i++ {
		edges = append(edges, graph.Edge{U: uint32(r.Intn(50)), V: uint32(r.Intn(50))})
	}
	g := graph.FromEdges(edges)
	counts := LocalCounts(g)
	var sum int64
	for _, c := range counts {
		sum += c
	}
	if sum != 3*Count(g) {
		t.Fatalf("sum of local counts %d != 3 * %d", sum, Count(g))
	}
}
