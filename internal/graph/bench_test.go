package graph

import (
	"math/rand"
	"testing"
)

func benchEdges(n, m int, seed int64) []Edge {
	r := rand.New(rand.NewSource(seed))
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{U: uint32(r.Intn(n)), V: uint32(r.Intn(n))}
	}
	return edges
}

func BenchmarkFromEdges(b *testing.B) {
	edges := benchEdges(10000, 100000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := FromEdges(edges)
		if g.NumEdges() == 0 {
			b.Fatal("no edges")
		}
	}
}

func BenchmarkEdgeID(b *testing.B) {
	g := FromEdges(benchEdges(10000, 100000, 1))
	es := g.Edges()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := es[i%len(es)]
		if _, ok := g.EdgeID(e.U, e.V); !ok {
			b.Fatal("missing edge")
		}
	}
}

func BenchmarkConnectedComponents(b *testing.B) {
	g := FromEdges(benchEdges(10000, 30000, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, c := ConnectedComponents(g); c == 0 {
			b.Fatal("no components")
		}
	}
}
