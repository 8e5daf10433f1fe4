package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/triangle"
)

func TestSupportsParallelMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for trial := 0; trial < 15; trial++ {
		n := 10 + r.Intn(80)
		m := 2*n + r.Intn(6*n)
		g := randomGraph(r, n, m)
		want := triangle.Supports(g)
		for _, workers := range []int{2, 4, 8} {
			got := triangle.SupportsOriented(graph.BuildOrientedParallel(g, workers), workers)
			if len(got) != len(want) {
				t.Fatalf("len %d vs %d", len(got), len(want))
			}
			for id := range want {
				if got[id] != want[id] {
					t.Fatalf("trial %d workers %d edge %d: %d vs %d",
						trial, workers, id, got[id], want[id])
				}
			}
		}
	}
}

func TestSupportsParallelEdgeCases(t *testing.T) {
	empty := graph.NewBuilder(0).Build()
	if got := triangle.SupportsOriented(graph.BuildOrientedParallel(empty, 4), 4); len(got) != 0 {
		t.Fatal("empty graph should yield no supports")
	}
	one := graph.FromEdges([]graph.Edge{{U: 0, V: 1}})
	if got := triangle.SupportsOriented(graph.BuildOrientedParallel(one, 0), 0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("single edge: %v", got)
	}
}

func TestDecomposeParallelPaperExample(t *testing.T) {
	g := graph.FromEdges(fig2Edges())
	for _, workers := range []int{0, 2, 4, 8} {
		r := DecomposeParallel(g, workers)
		checkAgainstFig2(t, "DecomposeParallel", r)
	}
}

func TestDecomposeParallelMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		n := 10 + r.Intn(90)
		m := 2*n + r.Intn(6*n)
		g := randomGraph(r, n, m)
		want := Decompose(g)
		for _, workers := range []int{2, 4, 8} {
			got := DecomposeParallel(g, workers)
			if err := EqualResults(want, got); err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, workers, err)
			}
		}
	}
}

func TestDecomposeParallelLargerGraph(t *testing.T) {
	// A denser graph with deep cascades exercises multi-sub-round levels
	// and the parallel dispatch path (frontiers above the serial cutoff).
	r := rand.New(rand.NewSource(7))
	var edges []graph.Edge
	const n = 600
	for i := 0; i < 12000; i++ {
		edges = append(edges, graph.Edge{U: uint32(r.Intn(n)), V: uint32(r.Intn(n))})
	}
	// Overlay cliques for high truss classes.
	for c := 0; c < 3; c++ {
		base := uint32(c * 40)
		for i := uint32(0); i < 20; i++ {
			for j := i + 1; j < 20; j++ {
				edges = append(edges, graph.Edge{U: base + i, V: base + j})
			}
		}
	}
	g := graph.FromEdges(edges)
	want := Decompose(g)
	got := DecomposeParallel(g, 8)
	if err := EqualResults(want, got); err != nil {
		t.Fatal(err)
	}
	if err := Verify(got); err != nil {
		t.Fatal(err)
	}
}

func TestDecomposeParallelTrivial(t *testing.T) {
	empty := graph.NewBuilder(0).Build()
	if r := DecomposeParallel(empty, 4); r.KMax != 0 {
		t.Fatal("empty graph")
	}
	tri := graph.FromEdges([]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}})
	r := DecomposeParallel(tri, 4)
	if r.KMax != 3 {
		t.Fatalf("triangle kmax = %d", r.KMax)
	}
}
