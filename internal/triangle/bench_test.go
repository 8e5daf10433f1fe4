package triangle

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func benchGraph(seed int64) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	const n = 4000
	for i := 0; i < 40000; i++ {
		edges = append(edges, graph.Edge{U: uint32(r.Intn(n)), V: uint32(r.Intn(n))})
	}
	// A few dense pockets for triangle mass.
	for c := 0; c < 4; c++ {
		base := uint32(c * 50)
		for i := uint32(0); i < 25; i++ {
			for j := i + 1; j < 25; j++ {
				edges = append(edges, graph.Edge{U: base + i, V: base + j})
			}
		}
	}
	return graph.FromEdges(edges)
}

func BenchmarkSupports(b *testing.B) {
	g := benchGraph(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if s := Supports(g); len(s) == 0 {
			b.Fatal("no supports")
		}
	}
}

func BenchmarkSupportsNaive(b *testing.B) {
	g := benchGraph(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if s := SupportsNaive(g); len(s) == 0 {
			b.Fatal("no supports")
		}
	}
}

// BenchmarkSupportsOriented times support initialization as the PKT
// engine runs it: the parallel degree-ordered view, then the chunked
// triangle pass.
func BenchmarkSupportsOriented(b *testing.B) {
	g := benchGraph(1)
	for _, w := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if s := SupportsOriented(graph.BuildOrientedParallel(g, w), w); len(s) == 0 {
					b.Fatal("no supports")
				}
			}
		})
	}
}

func BenchmarkCount(b *testing.B) {
	g := benchGraph(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if Count(g) == 0 {
			b.Fatal("no triangles")
		}
	}
}
