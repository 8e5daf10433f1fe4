package index

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/embu"
	"repro/internal/gen"
	"repro/internal/gio"
	"repro/internal/graph"
)

// resultStream re-streams an in-memory Result in reverse edge-ID order —
// deliberately not the canonical order, to prove BuildFromStream does
// not depend on how the engine happens to emit edges.
func resultStream(r *core.Result) EdgeStream {
	return func(fn func(u, v uint32, phi int32) error) error {
		for id := len(r.Phi) - 1; id >= 0; id-- {
			e := r.G.Edge(int32(id))
			if err := fn(e.U, e.V, r.Phi[id]); err != nil {
				return err
			}
		}
		return nil
	}
}

// TestBuildFromStreamMatchesBuild is the structural half of the
// acceptance bar: reconstructing an index from an edge stream — whether
// re-streamed from an in-memory Result or read back from a bottom-up
// engine's disk spool — must yield an index structurally identical to
// Build over the equivalent Result, community tables included.
func TestBuildFromStreamMatchesBuild(t *testing.T) {
	ctx := context.Background()
	graphs := map[string]*graph.Graph{
		"paper":   gen.PaperExample(),
		"ba":      gen.BarabasiAlbert(200, 4, 3),
		"cliques": gen.WithPlantedCliques(gen.ErdosRenyi(80, 200, 1), []int{7, 5}, 2),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			res := core.Decompose(g)
			want := Build(res)

			t.Run("from-result-stream", func(t *testing.T) {
				got, err := BuildFromStream(ctx, g.NumVertices(), resultStream(res))
				if err != nil {
					t.Fatal(err)
				}
				sameIndex(t, got, want)
			})

			t.Run("from-bottomup-spool", func(t *testing.T) {
				bu, err := embu.DecomposeGraph(ctx, g, embu.Config{
					Budget: int64(g.NumEdges()), Seed: 1, TempDir: t.TempDir(),
				})
				if err != nil {
					t.Fatal(err)
				}
				defer bu.Close()
				got, err := BuildFromStream(ctx, bu.NumVertices, func(fn func(u, v uint32, phi int32) error) error {
					return bu.Classes.ForEach(func(r gio.EdgeAux) error {
						return fn(r.U, r.V, r.Aux)
					})
				})
				if err != nil {
					t.Fatal(err)
				}
				sameIndex(t, got, want)
			})
		})
	}
}

// TestBuildFromStreamGrowsVertexSpace: vertex IDs beyond the declared
// count widen the graph instead of failing.
func TestBuildFromStreamGrowsVertexSpace(t *testing.T) {
	ix, err := BuildFromStream(context.Background(), 2, func(fn func(u, v uint32, phi int32) error) error {
		return fn(5, 9, 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Graph().NumVertices() != 10 || ix.NumEdges() != 1 {
		t.Fatalf("n=%d m=%d, want 10/1", ix.Graph().NumVertices(), ix.NumEdges())
	}
}

// TestBuildFromStreamRejectsCorruptStreams: duplicates and self-loops
// are decomposition corruption, not input to be cleaned up.
func TestBuildFromStreamRejectsCorruptStreams(t *testing.T) {
	ctx := context.Background()
	cases := map[string][][3]int64{ // u, v, phi
		"duplicate":          {{1, 2, 3}, {3, 4, 2}, {2, 1, 4}},
		"self-loop":          {{1, 1, 2}},
		"duplicate-same-phi": {{1, 2, 3}, {1, 2, 3}},
		"negative-phi":       {{1, 2, -1}},
		"below-range-phi":    {{1, 2, 1}},
		// A K4 at phi 4 next to a K5 whose edges all claim phi 2.
		"phi-2-on-triangle": append(cliqueAt(4, 0, 1, 2, 3), cliqueAt(2, 30, 31, 32, 33, 34)...),
		// The same with no level above 2 to build.
		"phi-2-triangle-only": cliqueAt(2, 1, 2, 3),
		// Top classes too small to be a kmax-truss: one edge claiming a
		// million levels, and a K4 with one edge raised to phi 5.
		"huge-phi-single-edge": {{1, 2, 1_000_000}},
		"phi-5-in-k4": func() [][3]int64 {
			k4 := cliqueAt(4, 0, 1, 2, 3)
			k4[0][2] = 5
			return k4
		}(),
	}
	for name, edges := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := BuildFromStream(ctx, 0, func(fn func(u, v uint32, phi int32) error) error {
				for _, e := range edges {
					if err := fn(uint32(e[0]), uint32(e[1]), int32(e[2])); err != nil {
						return err
					}
				}
				return nil
			})
			if err == nil {
				t.Fatalf("%s stream accepted", name)
			}
			if !strings.Contains(err.Error(), "index:") {
				t.Fatalf("error %q does not identify the layer", err)
			}
		})
	}
}

// TestBuildFromStreamCancellation: a canceled context aborts the
// consuming loop promptly with ctx.Err().
func TestBuildFromStreamCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := core.Decompose(gen.BarabasiAlbert(200, 4, 3))
	_, err := BuildFromStream(ctx, res.G.NumVertices(), resultStream(res))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestBuildFromStreamEmpty: an empty stream yields an empty but usable
// index.
func TestBuildFromStreamEmpty(t *testing.T) {
	ix, err := BuildFromStream(context.Background(), 4, func(fn func(u, v uint32, phi int32) error) error {
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumEdges() != 0 || ix.KMax() != 0 || ix.Graph().NumVertices() != 4 {
		t.Fatalf("empty stream: m=%d kmax=%d n=%d", ix.NumEdges(), ix.KMax(), ix.Graph().NumVertices())
	}
	if _, ok := ix.TrussNumber(0, 1); ok {
		t.Fatal("lookup on empty index found an edge")
	}
}

// cliqueAt lists the edges of the clique on vs, each with truss number phi.
func cliqueAt(phi int64, vs ...int64) [][3]int64 {
	var es [][3]int64
	for i := range vs {
		for j := i + 1; j < len(vs); j++ {
			es = append(es, [3]int64{vs[i], vs[j], phi})
		}
	}
	return es
}
