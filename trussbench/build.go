package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/gio"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/indexfile"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/server"
)

// builtIndex is what one timed build left behind, kept for the checks.
type builtIndex struct {
	dir  string
	kmax int32
	hist []int64
}

// runBuild times file-to-durable-index builds of the LiveJournal analog.
// No HTTP, ingest or maintenance work runs while builds are timed.
func runBuild(cfg config) (*report, error) {
	ctx := context.Background()
	rep := newReport()
	sz := cfg.size
	path := cfg.scratch("lj.txt")

	var g0 *graph.Graph
	var setups []float64
	for range sz.setups {
		s, err := seconds(func() error {
			g0 = ljGraph(sz, cfg.seed)
			return gio.SaveGraph(path, g0, nil)
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	rep.metrics["setup_s"] = median(setups)
	m := g0.NumEdges()

	// Timed builds. The traced run alternates them with traced builds of
	// the same file, so the two can be compared within one process.
	var builds []float64
	var built []builtIndex
	var traced []*buildTrace
	var tr *tracer
	if cfg.trace {
		tr = newTracer(fmt.Sprintf("build-%d", cfg.seed))
	}
	var last *server.Server
	var lastReg *obs.Registry
	var snapSecs []float64
	rtRun := readRuntime()
	deadline := time.Now().Add(cfg.seconds)
	for i := 0; ; i++ {
		enough := len(builds) >= sz.minBuilds && (!cfg.trace || len(traced) >= sz.minBuilds)
		if enough && time.Now().After(deadline) {
			break
		}
		dir := cfg.scratch(fmt.Sprintf("b%d", i))
		if cfg.trace && i%2 == 1 {
			runtime.GC() // the same quiet start the untraced builds get
			bt, err := tracedBuild(ctx, tr, path, dir, "lj")
			if err != nil {
				return nil, err
			}
			traced = append(traced, bt)
			os.RemoveAll(dir)
			continue
		}
		srv, reg, s, err := durableBuild(path, dir, "lj")
		if err != nil {
			return nil, err
		}
		e, _ := srv.Lookup("lj")
		builds = append(builds, s)
		built = append(built, builtIndex{dir: dir, kmax: e.Index.KMax(), hist: e.Index.Histogram()})
		if last != nil {
			if err := shutdown(last); err != nil {
				return nil, err
			}
		}
		if sc, err := scrape(reg); err == nil {
			snapSecs = append(snapSecs, sc.Value("truss_snapshot_seconds_sum"))
		}
		last, lastReg = srv, reg
	}
	rep.metrics["build_s"] = median(builds)
	rep.note("builds: %d timed, %d traced; m=%d", len(builds), len(traced), m)
	lastDir := built[len(built)-1].dir
	st, err := server.NewStore(lastDir)
	if err != nil {
		return nil, err
	}
	fi, err := os.Stat(st.IndexPath("lj"))
	if err != nil {
		return nil, err
	}
	rep.metrics["index_bytes_per_edge"] = float64(fi.Size()) / float64(m)

	// Reads of the freshly built index.
	e, _ := last.Lookup("lj")
	want := newOracle(g0.Edges())
	ts := httptest.NewServer(last.Handler())
	defer ts.Close()
	// No top-truss reads here: the kmax-120 clique is a 7140-edge answer
	// whose service time would set the tail by itself.
	ops := readStream(cfg.seed, g0.Edges(), sz.ljProbe, 0)
	runtime.GC() // every timed phase starts from a quiet heap
	reads, err := readPhase(ctx, rep, ts.URL, "lj", e.Index.KMax(), ops, sz.ljRate, time.Now(), want.phi)
	rt1 := readRuntime()
	if err != nil {
		return rep, err
	}
	want.phi = nil // only the read check needs exact answers; free them before the restarts
	// Unary durable writes on the built index, one at a time over HTTP.
	// Each joins two new vertices, so it closes no triangle and costs the
	// same for every seed: the commit path's O(m) copies, one WAL append
	// and its fsync. recover_s then restarts over the records they leave.
	wss, err := isolatedWrites(ctx, ts.URL, "lj", uint32(e.Index.Graph().NumVertices()), sz.ljWrites)
	if err != nil {
		return rep, err
	}
	_, wsvc, _, wfailed := latencies(wss)
	rep.attempted += int64(len(wss))
	rep.failed += int64(wfailed)
	rep.metrics["write_service_p50_ms"] = quantileMS(wsvc, 0.5)
	rep.note("writes: %d unary inserts of an edge between new vertices, %d failed; service p50 %.3f ms, max %.3f ms",
		len(wss), wfailed, quantileMS(wsvc, 0.5), quantileMS(wsvc, 1))
	te, _ := last.Lookup("lj")
	wantHist := slices.Clone(want.hist)
	wantHist[2] += int64(sz.ljWrites)
	if te.Version != e.Version+uint64(sz.ljWrites) || !sameHist(te.Index.Histogram(), wantHist) {
		return rep, checkf("after %d isolated inserts: version %d from %d, or class 2 did not grow by them",
			sz.ljWrites, te.Version, e.Version)
	}
	var rs restartSamples
	if err := rs.takeCopies(cfg, lastDir, "lj", g0.Edge(0), sz.tailRestarts, sameAs(te.Version, te.Index.Histogram())); err != nil {
		return rep, err
	}
	rep.metrics["recover_s"] = median(rs.secs)

	// Untimed checks: every build against one sequential peel, and every
	// written snapshot re-opened.
	for i, b := range built {
		if b.kmax != want.kmax || !sameHist(b.hist, want.hist) {
			return rep, checkf("build %d: kmax %d, want %d, or histogram differs", i, b.kmax, want.kmax)
		}
		bst, err := server.NewStore(b.dir)
		if err != nil {
			return rep, err
		}
		f, err := indexfile.Open(bst.IndexPath("lj"))
		if err != nil {
			return rep, checkf("build %d: reopening snapshot: %v", i, err)
		}
		ix := f.Index()
		ok := ix.KMax() == want.kmax && sameHist(ix.Histogram(), want.hist)
		f.Close()
		if !ok {
			return rep, checkf("build %d: reopened snapshot disagrees with a sequential decomposition", i)
		}
		rep.attempted++
	}
	rep.note("checks: %d builds and snapshots match a sequential decomposition (kmax %d)", len(built), want.kmax)

	if cfg.trace {
		buildLayers(rep, traced)
		loadgenLayer(rep, reads)
		rep.metrics["client.write_service_p50_ms"] = quantileMS(wsvc, 0.5)
		sc, err := scrape(lastReg)
		if err != nil {
			return rep, err
		}
		rep.metrics["server.read_handler_mean_ms"] = routeMean(obs.Samples{}, sc,
			"GET /v1/graphs/{name}/truss", "POST /v1/graphs/{name}/query", "GET /v1/graphs/{name}/communities")
		rep.metrics["server.write_handler_mean_ms"] = routeMean(obs.Samples{}, sc, "POST /v1/graphs/{name}/edges")
		rep.metrics["server.snapshot_s"] = median(snapSecs)
		rep.metrics["go.gc_pause_p99_ms"] = rt1.pauseP99ms(rtRun) // builds and reads
		rep.metrics["index.lookup_us"] = lookupMicros(te.Index, ops)
		if err := recoverLayers(rep, rs.regs, rs.secs); err != nil {
			return rep, err
		}
		var phases, gaps, totals []float64
		for _, b := range traced {
			phases = append(phases, b.phases().Seconds())
			gaps = append(gaps, b.unattributed.Seconds())
			totals = append(totals, b.total.Seconds())
		}
		attributed := median(phases) / median(builds)
		overhead := median(totals)/median(builds) - 1
		rep.metrics["trace.build_attributed"] = attributed
		rep.metrics["trace.build_overhead"] = overhead
		rep.note("attribution: load+decompose+index+persist = %.3f s over untraced build_s %.3f s (%.1f%%, %s); "+
			"build span self time %.6f s; tracing overhead %+.1f%% (traced build %.3f s)",
			median(phases), median(builds), 100*attributed, verdict(attributed), median(gaps), 100*overhead, median(totals))
		// Maintenance on the heavy-tailed index, replayed through the
		// layers a flush calls: a handful of single-edge writes.
		model := newEdgeModel(te.Index.Graph(), cfg.seed)
		var batches [][]ingest.Mutation
		for range sz.replayWrites {
			batches = append(batches, []ingest.Mutation{model.next()})
		}
		rst, err := server.NewStore(cfg.scratch("replay"))
		if err != nil {
			return rep, err
		}
		rs, err := replay(ctx, tr, te.Index, batches, rst, "lj")
		if err != nil {
			return rep, err
		}
		replayLayers(rep, rs)
		if err := tr.write(filepath.Join(filepath.Dir(cfg.work), fmt.Sprintf("trace-build-%d.jsonl", cfg.seed))); err != nil {
			return rep, err
		}
		if err := gate(cfg, "build", attributed); err != nil {
			return rep, err
		}
	}
	if err := shutdown(last); err != nil {
		return rep, err
	}
	rss, err := peakRSSMB()
	rep.metrics["peak_rss_mb"] = rss
	return rep, err
}

// lookupMicros times the read stream's point lookups made directly on the
// served index, in microseconds per lookup.
func lookupMicros(ix *index.TrussIndex, ops []readOp) float64 {
	var pairs []graph.Edge
	for _, op := range ops {
		pairs = append(pairs, op.pairs...)
	}
	if len(pairs) == 0 {
		return 0
	}
	var sink int32
	t0 := time.Now()
	for _, p := range pairs {
		k, _ := ix.TrussNumber(p.U, p.V)
		sink += k
	}
	us := float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(pairs))
	if sink < 0 {
		panic("negative truss number")
	}
	return us
}
