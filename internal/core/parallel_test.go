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
