package index

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// benchGraph builds a community-structured graph with roughly m edges.
func benchGraph(blocks int) *graph.Graph {
	return gen.Community(blocks, 16, 0.6, 2, 42)
}

// BenchmarkTrussNumber measures one point lookup at increasing graph
// sizes. The per-op cost is O(log deg) — flat as the graph grows — which
// is the "no re-peeling per query" property the index exists for:
// recomputing the decomposition per query would cost O(m^1.5).
func BenchmarkTrussNumber(b *testing.B) {
	for _, blocks := range []int{16, 64, 256, 1024} {
		g := benchGraph(blocks)
		ix := Build(core.Decompose(g))
		edges := g.Edges()
		b.Run(fmt.Sprintf("m=%d", g.NumEdges()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := edges[i%len(edges)]
				if _, ok := ix.TrussNumber(e.U, e.V); !ok {
					b.Fatal("edge vanished")
				}
			}
		})
	}
}

// BenchmarkCommunityOf measures one community lookup (the community
// itself is returned as a view, so cost is independent of its size).
func BenchmarkCommunityOf(b *testing.B) {
	for _, blocks := range []int{16, 64, 256, 1024} {
		g := benchGraph(blocks)
		ix := Build(core.Decompose(g))
		// Query edges that are inside some 3-truss community.
		var in []graph.Edge
		for _, id := range ix.TrussEdges(3) {
			in = append(in, g.Edge(id))
		}
		if len(in) == 0 {
			b.Skip("no 3-truss")
		}
		b.Run(fmt.Sprintf("m=%d", g.NumEdges()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := in[i%len(in)]
				if _, ok := ix.CommunityOf(e.U, e.V, 3); !ok {
					b.Fatal("community vanished")
				}
			}
		})
	}
}

// BenchmarkBuild measures the one-time index construction cost, for
// comparison with the per-query numbers above. The community graphs have
// a small kmax; the rmat row is heavy-tailed with planted cliques (kmax
// 48), so its many per-level snapshots dominate as they do on large
// social graphs.
func BenchmarkBuild(b *testing.B) {
	run := func(name string, g *graph.Graph) {
		r := core.Decompose(g)
		b.Run(fmt.Sprintf("%sm=%d", name, g.NumEdges()), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				Build(r)
			}
		})
	}
	for _, blocks := range []int{16, 64, 256} {
		run("", benchGraph(blocks))
	}
	run("rmat/", gen.WithPlantedCliques(gen.RMAT(14, 6, 0.57, 0.19, 0.19, 42), []int{48, 32, 24}, 42))
}
