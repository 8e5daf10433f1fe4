package graph

import (
	"math/rand"
	"testing"
)

func TestVertexSetBasics(t *testing.T) {
	s := NewVertexSet(100)
	if s.Len() != 0 {
		t.Fatal("new set not empty")
	}
	s.Add(0)
	s.Add(63)
	s.Add(64)
	s.Add(99)
	s.Add(200) // out of range, ignored
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	for _, v := range []uint32{0, 63, 64, 99} {
		if !s.Contains(v) {
			t.Fatalf("missing %d", v)
		}
	}
	if s.Contains(1) || s.Contains(200) {
		t.Fatal("spurious membership")
	}
	s.Remove(63)
	if s.Contains(63) || s.Len() != 3 {
		t.Fatal("Remove failed")
	}
	var seen []uint32
	s.ForEach(func(v uint32) { seen = append(seen, v) })
	want := []uint32{0, 64, 99}
	if len(seen) != len(want) {
		t.Fatalf("ForEach = %v", seen)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("ForEach = %v, want %v", seen, want)
		}
	}
	s.Clear()
	if s.Len() != 0 {
		t.Fatal("Clear failed")
	}
}

// fig2Edges is the graph of the paper's Figure 2, with vertices a=0..l=11.
func fig2Edges() []Edge {
	// Exact edge set of Figure 2 reconstructed from the listed k-classes.
	return []Edge{
		// Phi2
		{8, 10}, // (i,k)
		// Phi3
		{3, 6}, {3, 10}, {3, 11}, {4, 5}, {4, 6}, {5, 6}, {6, 7}, {6, 10}, {6, 11},
		// Phi4
		{5, 7}, {5, 8}, {5, 9}, {7, 8}, {7, 9}, {8, 9},
		// Phi5
		{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4},
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := FromEdges(fig2Edges())
	u := NewVertexSet(g.NumVertices())
	for _, v := range []uint32{0, 1, 2, 3, 4} { // the 5-clique a..e
		u.Add(v)
	}
	ind := InducedSubgraph(g, u)
	if ind.NumEdges() != 10 {
		t.Fatalf("induced clique edges = %d, want 10", ind.NumEdges())
	}
}

func TestEdgeInducedSubgraph(t *testing.T) {
	g := FromEdges(fig2Edges())
	ids := []int32{0, 1, 2}
	sg := EdgeInducedSubgraph(g, ids)
	if sg.NumEdges() != 3 {
		t.Fatalf("edge-induced edges = %d, want 3", sg.NumEdges())
	}
}

func TestConnectedComponents(t *testing.T) {
	g := FromEdges([]Edge{{0, 1}, {1, 2}, {4, 5}})
	labels, count := ConnectedComponents(g)
	// Components: {0,1,2}, {3}, {4,5}.
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatal("0,1,2 should share a component")
	}
	if labels[4] != labels[5] || labels[4] == labels[0] {
		t.Fatal("4,5 mislabeled")
	}
	if labels[3] == labels[0] || labels[3] == labels[4] {
		t.Fatal("isolated vertex should be its own component")
	}
}

func TestConnectedComponentsRandom(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	g := FromEdges(randomEdges(r, 50, 60))
	labels, count := ConnectedComponents(g)
	if count <= 0 {
		t.Fatal("no components")
	}
	for _, e := range g.Edges() {
		if labels[e.U] != labels[e.V] {
			t.Fatalf("edge %v spans components", e)
		}
	}
}
