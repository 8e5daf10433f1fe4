// Benchmarks regenerating the paper's evaluation, one family per table
// (see DESIGN.md's experiment index). All benchmarks run on the ~1/10
// scale "quick" dataset analogs so a full -bench=. pass stays in the
// minutes range; cmd/experiments runs the full-scale analogs.
//
//	go test -bench=. -benchmem
package truss_test

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	truss "repro"
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/embu"
	"repro/internal/emtd"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kcore"
	"repro/internal/mapreduce"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/server"
	"repro/internal/triangle"
)

func quickDataset(b *testing.B, name string) *graph.Graph {
	b.Helper()
	for _, d := range gen.QuickDatasets() {
		if d.Name == name {
			return gen.CachedBuild("bench/"+name, d)
		}
	}
	b.Fatalf("unknown dataset %s", name)
	return nil
}

// externalBudget mirrors the experiment harness: 60% of the adjacency
// entries, so the external machinery must actually partition.
func externalBudget(g *graph.Graph) int64 {
	bud := int64(g.NumEdges()) * 6 / 5
	if bud < 1<<12 {
		bud = 1 << 12
	}
	return bud
}

// --- Unified engine API (truss.Run) ----------------------------------------

// BenchmarkRun measures every engine through the unified truss.Run entry
// point on small fixture graphs — the engine × graph matrix the CI bench
// job captures as BENCH_PR.json. TD-MR runs only on the smallest analog
// (as in the paper's Table 4; it is orders of magnitude slower).
//
// The XL rows are the parallel-speedup probe: a 1M+ edge graph where the
// PKT engine's round structure pays off, run only for the in-memory and
// parallel engines (the external engines would dominate the bench budget
// at that size). CI gates BenchmarkRun/parallel/XL against
// BenchmarkRun/inmem/XL via benchjson -speedup.
func BenchmarkRun(b *testing.B) {
	ctx := context.Background()
	allEngines := []truss.Engine{
		truss.EngineInMem, truss.EngineBaseline, truss.EngineParallel,
		truss.EngineBottomUp, truss.EngineTopDown, truss.EngineMapReduce,
	}
	for _, name := range []string{"P2P", "HEP"} {
		g := quickDataset(b, name)
		for _, eng := range allEngines {
			if eng == truss.EngineMapReduce && name != "P2P" {
				continue
			}
			b.Run(fmt.Sprintf("%s/%s", eng, name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					d, err := truss.Run(ctx, truss.FromGraph(g),
						truss.WithEngine(eng),
						truss.WithBudget(externalBudget(g)),
						truss.WithSeed(1),
						truss.WithTempDir(b.TempDir()))
					if err != nil {
						b.Fatal(err)
					}
					if d.KMax() == 0 {
						b.Fatal("kmax 0")
					}
					d.Close()
				}
			})
		}
	}

	xl := gen.CachedBuild("bench/XL", gen.XLDataset())
	if xl.NumEdges() < 1_000_000 {
		b.Fatalf("XL target shrank below 1M edges: m=%d", xl.NumEdges())
	}
	for _, eng := range []truss.Engine{truss.EngineInMem, truss.EngineParallel} {
		b.Run(fmt.Sprintf("%s/XL", eng), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d, err := truss.Run(ctx, truss.FromGraph(xl), truss.WithEngine(eng))
				if err != nil {
					b.Fatal(err)
				}
				if d.KMax() == 0 {
					b.Fatal("kmax 0")
				}
				d.Close()
			}
		})
	}
}

// --- Index construction (truss.BuildIndexFrom) ------------------------------

// BenchmarkBuildIndexFrom measures index construction across build
// paths: the zero-copy fast path over an in-memory Result, the forced
// streaming reconstruction over the same result (isolating the
// sort-and-rebuild overhead), and streaming straight out of the
// bottom-up engine's disk spool (the path that makes external results
// servable). CI captures it into BENCH_PR.json so index-construction
// cost is tracked across PRs alongside the engines.
func BenchmarkBuildIndexFrom(b *testing.B) {
	ctx := context.Background()
	g := quickDataset(b, "P2P")
	dmem, err := truss.Run(ctx, truss.FromGraph(g))
	if err != nil {
		b.Fatal(err)
	}
	dbu, err := truss.Run(ctx, truss.FromGraph(g),
		truss.WithEngine(truss.EngineBottomUp),
		truss.WithBudget(externalBudget(g)), truss.WithSeed(1),
		truss.WithTempDir(b.TempDir()))
	if err != nil {
		b.Fatal(err)
	}
	defer dbu.Close()

	for _, tc := range []struct {
		name string
		d    truss.Decomposition
	}{
		{"fastpath/inmem", dmem},
		// The wrapper hides dmem from AsInMemory, forcing the stream path.
		{"stream/inmem", struct{ truss.Decomposition }{dmem}},
		{"stream/bottomup", dbu},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ix, err := truss.BuildIndexFrom(ctx, tc.d)
				if err != nil {
					b.Fatal(err)
				}
				if ix.KMax() == 0 {
					b.Fatal("kmax 0")
				}
			}
		})
	}
}

// --- Dynamic maintenance ----------------------------------------------------

// BenchmarkUpdate compares incremental maintenance of a single-edge batch
// against the full recompute it replaces, on a ~100k-edge scale-free
// graph. The incremental rows run about 8x faster than the parallel
// recompute: medians of 10 runs at -benchtime 30x read 4.1 ms (delete)
// and 4.3 ms (insert) against 33.7 ms (parallel) and 43.5 ms
// (sequential) on 2 vCPUs (Intel Xeon, Go 1.24.0). Nothing gates the
// ratio. Update never mutates its inputs, so every iteration starts from
// the same pristine decomposition.
func BenchmarkUpdate(b *testing.B) {
	ctx := context.Background()
	g := gen.BarabasiAlbert(20000, 5, 1)
	if g.NumEdges() < 90_000 {
		b.Fatalf("benchmark graph too small: m=%d", g.NumEdges())
	}
	phi := core.Decompose(g).Phi
	edges := g.Edges()
	cfg := dynamic.Config{}

	b.Run("incremental-delete-1edge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			del := edges[(i*7919)%len(edges)]
			res, err := dynamic.Update(ctx, g, phi, dynamic.Batch{Dels: []graph.Edge{del}}, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if res.KMax == 0 {
				b.Fatal("kmax 0")
			}
		}
	})
	b.Run("incremental-insert-1edge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// A fresh vertex pairing, almost surely a non-edge; Update
			// tolerates the occasional existing one.
			add := graph.Edge{U: uint32((i * 13) % g.NumVertices()), V: uint32((i*7919 + 101) % g.NumVertices())}
			res, err := dynamic.Update(ctx, g, phi, dynamic.Batch{Adds: []graph.Edge{add}}, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if res.KMax == 0 {
				b.Fatal("kmax 0")
			}
		}
	})
	b.Run("full-recompute-sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if r := core.Decompose(g); r.KMax == 0 {
				b.Fatal("kmax 0")
			}
		}
	})
	b.Run("full-recompute-parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if r := core.DecomposeParallel(g, 0); r.KMax == 0 {
				b.Fatal("kmax 0")
			}
		}
	})
}

// --- Table 2: dataset statistics ------------------------------------------

func BenchmarkTable2_Stats(b *testing.B) {
	for _, name := range []string{"P2P", "HEP", "Amazon", "Wiki", "Skitter", "Blog", "LJ", "BTC", "Web"} {
		g := quickDataset(b, name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := metrics.Stats(g)
				if st.KMax == 0 {
					b.Fatal("kmax 0")
				}
			}
		})
	}
}

// --- Table 3: TD-inmem vs TD-inmem+ ----------------------------------------

func BenchmarkTable3_TDInmem(b *testing.B) {
	for _, name := range []string{"Wiki", "Amazon", "Skitter", "Blog"} {
		g := quickDataset(b, name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if r := core.DecomposeBaseline(g); r.KMax == 0 {
					b.Fatal("kmax 0")
				}
			}
		})
	}
}

func BenchmarkTable3_TDInmemPlus(b *testing.B) {
	for _, name := range []string{"Wiki", "Amazon", "Skitter", "Blog"} {
		g := quickDataset(b, name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if r := core.Decompose(g); r.KMax == 0 {
					b.Fatal("kmax 0")
				}
			}
		})
	}
}

// --- Table 4: TD-bottomup vs TD-MR ------------------------------------------

func BenchmarkTable4_TDBottomup(b *testing.B) {
	for _, name := range []string{"P2P", "HEP", "LJ", "BTC", "Web"} {
		g := quickDataset(b, name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := embu.DecomposeGraph(context.Background(), g, embu.Config{
					Budget: externalBudget(g), Seed: 1, TempDir: b.TempDir(),
				})
				if err != nil {
					b.Fatal(err)
				}
				res.Close()
			}
		})
	}
}

// BenchmarkTable4_TDMR runs the MapReduce baseline on the smallest analog
// only (the paper could not run it beyond P2P and HEP either; HEP takes
// minutes per iteration and is exercised by cmd/experiments instead).
func BenchmarkTable4_TDMR(b *testing.B) {
	g := quickDataset(b, "P2P")
	b.Run("P2P", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := mapreduce.TrussDecompose(g)
			if res.KMax == 0 {
				b.Fatal("kmax 0")
			}
			b.ReportMetric(float64(res.Counters.Rounds), "mr-rounds")
			b.ReportMetric(float64(res.Counters.Shuffled), "mr-records")
		}
	})
}

// --- Table 5: TD-topdown vs TD-bottomup -------------------------------------

func BenchmarkTable5_TopDownTop20(b *testing.B) {
	for _, name := range []string{"LJ", "BTC", "Web"} {
		g := quickDataset(b, name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := emtd.DecomposeGraph(context.Background(), g, emtd.Config{
					TopT: 20, Budget: externalBudget(g), Seed: 1, TempDir: b.TempDir(),
				})
				if err != nil {
					b.Fatal(err)
				}
				res.Close()
			}
		})
	}
}

func BenchmarkTable5_TopDownAll(b *testing.B) {
	for _, name := range []string{"LJ", "BTC", "Web"} {
		g := quickDataset(b, name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := emtd.DecomposeGraph(context.Background(), g, emtd.Config{
					Budget: externalBudget(g), Seed: 1, TempDir: b.TempDir(),
				})
				if err != nil {
					b.Fatal(err)
				}
				res.Close()
			}
		})
	}
}

func BenchmarkTable5_Bottomup(b *testing.B) {
	for _, name := range []string{"LJ", "BTC", "Web"} {
		g := quickDataset(b, name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := embu.DecomposeGraph(context.Background(), g, embu.Config{
					Budget: externalBudget(g), Seed: 1, TempDir: b.TempDir(),
				})
				if err != nil {
					b.Fatal(err)
				}
				res.Close()
			}
		})
	}
}

// --- Table 6: kmax-truss vs cmax-core ----------------------------------------

func BenchmarkTable6_TrussVsCore(b *testing.B) {
	for _, name := range []string{"Amazon", "Wiki", "Skitter", "Blog", "LJ", "BTC", "Web"} {
		g := quickDataset(b, name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ts, cs := metrics.TrussVsCore(g)
				if ts.E == 0 || cs.E == 0 {
					b.Fatal("degenerate subgraphs")
				}
			}
		})
	}
}

// --- Ablations (DESIGN.md design choices) ------------------------------------

// BenchmarkAblation_KInit measures the Section 6.3 shortcut: top-20 truss
// classes with and without the in-memory kinit jump.
func BenchmarkAblation_KInit(b *testing.B) {
	g := quickDataset(b, "LJ")
	for _, tc := range []struct {
		name    string
		disable bool
	}{{"shortcut-on", false}, {"shortcut-off", true}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := emtd.DecomposeGraph(context.Background(), g, emtd.Config{
					TopT: 20, Budget: externalBudget(g), Seed: 1,
					TempDir: b.TempDir(), DisableKInit: tc.disable,
				})
				if err != nil {
					b.Fatal(err)
				}
				res.Close()
			}
		})
	}
}

// BenchmarkAblation_PartitionStrategy compares the three partitioners of
// Chu & Cheng inside the bottom-up pipeline.
func BenchmarkAblation_PartitionStrategy(b *testing.B) {
	g := quickDataset(b, "Wiki")
	for _, tc := range []struct {
		name  string
		strat partition.Strategy
	}{
		{"sequential", partition.Sequential},
		{"randomized", partition.Randomized},
		{"dominating", partition.DominatingSet},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := embu.DecomposeGraph(context.Background(), g, embu.Config{
					Budget: externalBudget(g), Strategy: tc.strat, Seed: 1, TempDir: b.TempDir(),
				})
				if err != nil {
					b.Fatal(err)
				}
				res.Close()
			}
		})
	}
}

// BenchmarkAblation_BudgetSweep shows how the bottom-up runtime responds to
// the memory budget (fractions of the graph's 2m adjacency entries).
func BenchmarkAblation_BudgetSweep(b *testing.B) {
	g := quickDataset(b, "Wiki")
	entries := int64(2 * g.NumEdges())
	for _, tc := range []struct {
		name  string
		share int64 // percent of adjacency entries
	}{{"budget-30pct", 30}, {"budget-60pct", 60}, {"budget-120pct", 120}, {"budget-240pct", 240}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := embu.DecomposeGraph(context.Background(), g, embu.Config{
					Budget: entries * tc.share / 100, Seed: 1, TempDir: b.TempDir(),
				})
				if err != nil {
					b.Fatal(err)
				}
				res.Close()
			}
		})
	}
}

// BenchmarkAblation_SupportInit compares the O(m^1.5) oriented triangle
// counter against the naive full-merge counter used by Algorithm 1's
// analysis (the initialization step both in-memory algorithms share).
func BenchmarkAblation_SupportInit(b *testing.B) {
	g := quickDataset(b, "Skitter")
	b.Run("compact-forward", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if s := triangle.Supports(g); len(s) == 0 {
				b.Fatal("no supports")
			}
		}
	})
	b.Run("naive-merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if s := triangle.SupportsNaive(g); len(s) == 0 {
				b.Fatal("no supports")
			}
		}
	})
}

// BenchmarkAblation_Parallel sweeps worker counts for the parallel
// decomposition extension (level-synchronized peeling) against the
// sequential Algorithm 2.
func BenchmarkAblation_Parallel(b *testing.B) {
	g := quickDataset(b, "LJ")
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if r := core.Decompose(g); r.KMax == 0 {
				b.Fatal("kmax 0")
			}
		}
	})
	for _, w := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if r := core.DecomposeParallel(g, w); r.KMax == 0 {
					b.Fatal("kmax 0")
				}
			}
		})
	}
}

// BenchmarkAblation_CoreVsTruss compares the cost of core decomposition
// (O(m)) against truss decomposition (O(m^1.5)) — the price of the
// stronger cohesion guarantee.
func BenchmarkAblation_CoreVsTruss(b *testing.B) {
	g := quickDataset(b, "Blog")
	b.Run("kcore", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if r := kcore.Decompose(g); r.CMax == 0 {
				b.Fatal("cmax 0")
			}
		}
	})
	b.Run("ktruss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if r := core.Decompose(g); r.KMax == 0 {
				b.Fatal("kmax 0")
			}
		}
	})
}

// --- Indexfile restart path --------------------------------------------------

// BenchmarkIndexfileOpen measures the two ways a process can get an XL
// graph's index back after a restart: mapping the immutable indexfile
// (the snapshot path — open cost is preamble validation only, pages
// fault in lazily) and rebuilding the index heap structures from an
// already-decomposed result. CI gates open against build at >= 10x via
// benchjson -speedup: the warm-restart claim, kept honest by the
// numbers.
func BenchmarkIndexfileOpen(b *testing.B) {
	xl := gen.CachedBuild("bench/XL", gen.XLDataset())
	res := core.Decompose(xl)
	ix := truss.BuildIndex(res)

	dir := b.TempDir()
	tixPath := filepath.Join(dir, "index.tix")
	if err := truss.WriteIndexFile(tixPath, ix, "bench"); err != nil {
		b.Fatal(err)
	}

	b.Run("open", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f, err := truss.OpenIndexFile(tixPath)
			if err != nil {
				b.Fatal(err)
			}
			if f.Index().KMax() != ix.KMax() {
				b.Fatal("kmax mismatch")
			}
			f.Close()
		}
	})
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if truss.BuildIndex(res).KMax() == 0 {
				b.Fatal("kmax 0")
			}
		}
	})
}

// --- Group-committed ingestion (internal/server + internal/ingest) ----------

// BenchmarkIngest prices the ingestion pipeline's reason to exist: the
// same 512-mutation stream against a durable (WAL + fsync) 100k+ edge
// graph, arriving either as sequential unary requests — each paying its
// own dynamic.Update, index Patch, WAL append, and fsync — or from 32
// concurrent producers whose mutations the pipeline coalesces into
// group commits that amortize all four. CI gates pipelined vs
// per-request at >= 5x via benchjson -speedup.
func BenchmarkIngest(b *testing.B) {
	base := gen.BarabasiAlbert(22000, 5, 1)
	if base.NumEdges() < 100_000 {
		b.Fatalf("ingest target shrank below 100k edges: m=%d", base.NumEdges())
	}
	const streamLen = 512
	const producers = 32
	// One deterministic stream per iteration: fresh edges between a
	// dedicated vertex range (never in the base graph, no duplicates), so
	// both arrival modes commit identical non-trivial work.
	stream := func(iter int) []graph.Edge {
		edges := make([]graph.Edge, streamLen)
		for k := range edges {
			id := uint32(iter*streamLen + k)
			edges[k] = graph.Edge{U: 30000 + 2*id, V: 30001 + 2*id}
		}
		return edges
	}
	newServer := func(b *testing.B) *server.Server {
		s := server.New(server.Options{Workers: 1, DataDir: b.TempDir()})
		s.Build("g", base, "bench")
		b.Cleanup(func() { _ = s.Shutdown(context.Background()) })
		return s
	}

	b.Run("per-request", func(b *testing.B) {
		s := newServer(b)
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, e := range stream(i) {
				if _, _, err := s.Mutate(ctx, "g", []graph.Edge{e}, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	b.Run("pipelined", func(b *testing.B) {
		s := newServer(b)
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			edges := stream(i)
			var wg sync.WaitGroup
			errs := make(chan error, producers)
			per := len(edges) / producers
			for w := 0; w < producers; w++ {
				wg.Add(1)
				go func(part []graph.Edge) {
					defer wg.Done()
					for _, e := range part {
						if _, _, err := s.Mutate(ctx, "g", []graph.Edge{e}, nil); err != nil {
							errs <- err
							return
						}
					}
				}(edges[w*per : (w+1)*per])
			}
			wg.Wait()
			close(errs)
			if err := <-errs; err != nil {
				b.Fatal(err)
			}
		}
	})
}
