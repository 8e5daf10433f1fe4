package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gio"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/server"
)

// durableBuild loads path and builds it into a durable served index under
// dir with a server at default options: the file-to-index path build_s
// times. The caller owns the returned server.
func durableBuild(path, dir, name string) (*server.Server, *obs.Registry, float64, error) {
	reg := obs.NewRegistry()
	srv := server.New(server.Options{DataDir: dir, Metrics: reg})
	var e *server.Entry
	runtime.GC() // every timed build starts from a quiet heap
	s, err := seconds(func() error {
		g, err := gio.LoadGraph(path, nil)
		if err != nil {
			return err
		}
		e = srv.Build(name, g, path)
		return nil
	})
	if err != nil {
		return nil, nil, 0, err
	}
	if e.State != server.StateReady {
		return nil, nil, 0, checkf("build of %s: state %s: %s", path, e.State, e.Err)
	}
	return srv, reg, s, nil
}

// baSetup is the set-up serve and ingest share, repeated sz.setups times:
// generate the BA input, write it as SNAP text, and build it durably.
// setup_s and build_s are the medians over the repetitions; the last
// repetition's server, registry and data dir are kept.
type baSetup struct {
	g        *graph.Graph
	path     string
	dir      string
	srv      *server.Server
	reg      *obs.Registry
	snapSecs []float64
	builds   []float64 // seconds per durable build of the BA file
}

func setupBA(cfg config, rep *report, fromSnapshot bool) (*baSetup, error) {
	b := &baSetup{path: cfg.scratch("ba.txt")}
	var setups []float64
	for i := range cfg.size.setups {
		if b.srv != nil {
			if err := shutdown(b.srv); err != nil {
				return nil, err
			}
		}
		b.dir = cfg.scratch(fmt.Sprintf("d%d", i))
		var bs float64
		s, err := seconds(func() error {
			b.g = baGraph(cfg.size, cfg.seed)
			if err := gio.SaveGraph(b.path, b.g, nil); err != nil {
				return err
			}
			var err error
			b.srv, b.reg, bs, err = durableBuild(b.path, b.dir, "ba")
			if err != nil || !fromSnapshot {
				return err
			}
			// Serve off the mmap'd snapshot, as after a deploy.
			sc, err := scrape(b.reg)
			if err != nil {
				return err
			}
			b.snapSecs = append(b.snapSecs, sc.Value("truss_snapshot_seconds_sum"))
			if err := shutdown(b.srv); err != nil {
				return err
			}
			b.srv, b.reg, _, err = restart(b.dir, "ba", b.g.Edge(0))
			return err
		})
		if err != nil {
			return nil, err
		}
		setups, b.builds = append(setups, s), append(b.builds, bs)
	}
	rep.metrics["setup_s"] = median(setups)
	if err := b.moreBuilds(cfg, cfg.size.baBuilds/2); err != nil {
		return nil, err
	}
	st, err := server.NewStore(b.dir)
	if err != nil {
		return nil, err
	}
	fi, err := os.Stat(st.IndexPath("ba"))
	if err != nil {
		return nil, err
	}
	rep.metrics["index_bytes_per_edge"] = float64(fi.Size()) / float64(b.g.NumEdges())
	return b, nil
}

// moreBuilds adds durable builds of the BA file until there are n. A BA
// build takes a fraction of a second, so build_s takes more samples than
// the set-ups provide, half before the timed phase and half after it, so
// that one stretch of a noisy host does not set the median.
func (b *baSetup) moreBuilds(cfg config, n int) error {
	for i := len(b.builds); i < n; i++ {
		dir := cfg.scratch(fmt.Sprintf("extra%d", i))
		srv, _, bs, err := durableBuild(b.path, dir, "ba")
		if err != nil {
			return err
		}
		if err := shutdown(srv); err != nil {
			return err
		}
		b.builds = append(b.builds, bs)
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	return nil
}

// restartSamples accumulates timed warm restarts; recover_s is their
// median.
type restartSamples struct {
	secs []float64
	regs []*obs.Registry
}

// take times n restarts of dir, each checked by check.
func (r *restartSamples) take(dir, name string, probe graph.Edge, n int, check func(*server.Entry) error) error {
	for range n {
		s, reg, t, err := restart(dir, name, probe)
		if err != nil {
			return err
		}
		e, _ := s.Lookup(name)
		if err := shutdown(s); err != nil {
			return err
		}
		if err := check(e); err != nil {
			return err
		}
		r.secs, r.regs = append(r.secs, t), append(r.regs, reg)
	}
	return nil
}

// takeCopies times n restarts, each of its own copy of dir: recovery
// folds a WAL tail into a fresh snapshot, so a data dir restarts over its
// tail only once.
func (r *restartSamples) takeCopies(cfg config, dir, name string, probe graph.Edge, n int, check func(*server.Entry) error) error {
	for range n {
		cp := cfg.scratch(fmt.Sprintf("copy%d", len(r.secs)))
		if err := copyDir(dir, cp); err != nil {
			return err
		}
		runtime.GC() // each replaying restart starts from a quiet heap
		if err := r.take(cp, name, probe, 1, check); err != nil {
			return err
		}
		if err := os.RemoveAll(cp); err != nil {
			return err
		}
	}
	return nil
}

// sameAs checks a restarted entry against a served version and histogram.
func sameAs(version uint64, hist []int64) func(*server.Entry) error {
	return func(e *server.Entry) error {
		if e.Version != version || !sameHist(e.Index.Histogram(), hist) {
			return checkf("restart served version %d, want %d, or a different histogram", e.Version, version)
		}
		return nil
	}
}

// runServe drives the recovered BA graph over loopback HTTP with an open
// loop of reads (one connection) beside unary durable writes (a second
// connection): half inserts of new pairs, half deletes of live edges.
func runServe(cfg config) (*report, error) {
	ctx := context.Background()
	rep := newReport()
	sz := cfg.size
	b, err := setupBA(cfg, rep, true)
	if err != nil {
		return nil, err
	}
	probe := b.g.Edge(0)
	e, _ := b.srv.Lookup("ba")
	kmax := e.Index.KMax()

	run := cfg.seconds.Seconds()
	model := newEdgeModel(b.g, cfg.seed)
	writes := make([]ingest.Mutation, int(sz.writeRate*run))
	for i := range writes {
		writes[i] = model.next()
	}
	ops := readStream(cfg.seed, model.protected, int(sz.readRate*run), topPct)

	ts := httptest.NewServer(b.srv.Handler())
	defer ts.Close()
	wc, wtr, err := newClient(ts.URL)
	if err != nil {
		return nil, err
	}
	defer wtr.CloseIdleConnections()
	wg := wc.Graph("ba")
	before, err := scrape(b.reg)
	if err != nil {
		return nil, err
	}
	runtime.GC() // every timed phase starts from a quiet heap
	rt0 := readRuntime()
	start := time.Now().Add(10 * time.Millisecond)
	var wss []sample
	var done sync.WaitGroup
	done.Add(1)
	go func() {
		defer done.Done()
		wss = openLoop(start, sz.writeRate, len(writes), func(i int) error {
			var err error
			if w := writes[i]; w.Op == ingest.OpDel {
				_, err = wg.DeleteEdges(ctx, []graph.Edge{w.Edge})
			} else {
				_, err = wg.InsertEdges(ctx, []graph.Edge{w.Edge})
			}
			return err
		})
	}()
	reads, readErr := readPhase(ctx, rep, ts.URL, "ba", kmax, ops, sz.readRate, start, nil)
	done.Wait()
	wall := time.Since(start).Seconds()
	rt1 := readRuntime()
	after, err := scrape(b.reg)
	if err != nil {
		return nil, err
	}
	if readErr != nil {
		return rep, readErr
	}
	wlat, wservice, wlate, wfailed := latencies(wss)
	rep.attempted += int64(len(wss))
	rep.failed += int64(wfailed)
	rep.metrics["write_service_p50_ms"] = quantileMS(wservice, 0.5)
	rep.note("write_p50_ms = %.3f ms, %s: %d sent at %.0f/s, %d failed; late p50 %.3f ms, max %.3f ms",
		quantileMS(wlat, 0.5), tail("write", wlat), len(wss), sz.writeRate, wfailed,
		quantileMS(wlate, 0.5), quantileMS(wlate, 1))

	// Untimed check: the served histogram equals a fresh decomposition of
	// the benchmark's own model of the final edge set.
	rc, rtr, err := newClient(ts.URL)
	if err != nil {
		return rep, err
	}
	hist, err := rc.Graph("ba").Histogram(ctx)
	rtr.CloseIdleConnections()
	if err != nil {
		return rep, err
	}
	want := newOracle(model.edges())
	if !sameHist(hist, want.hist) {
		return rep, checkf("served histogram %v, fresh decomposition of the final edge set %v", hist, want.hist)
	}
	rep.note("checks: reads found every never-deleted edge; final histogram matches a fresh decomposition (kmax %d)", want.kmax)
	if err := b.moreBuilds(cfg, sz.baBuilds); err != nil {
		return rep, err
	}
	rep.metrics["build_s"] = median(b.builds)
	// Restarts of the data dir the session left: the snapshot plus the
	// WAL of every acked write, replayed batch by batch.
	final, _ := b.srv.Lookup("ba")
	var rs restartSamples
	if err := rs.takeCopies(cfg, b.dir, "ba", probe, sz.tailRestarts, sameAs(final.Version, hist)); err != nil {
		return rep, err
	}
	rep.metrics["recover_s"] = median(rs.secs)

	if cfg.trace {
		rep.metrics["index.lookup_us"] = lookupMicros(final.Index, ops)
		loadgenLayer(rep, reads)
		rep.metrics["client.write_service_p50_ms"] = quantileMS(wservice, 0.5)
		commitLayers(rep, before, after, wall, rt0, rt1)
		rep.metrics["server.snapshot_s"] = median(b.snapSecs)
		if err := recoverLayers(rep, rs.regs, rs.secs); err != nil {
			return rep, err
		}
		tr := newTracer(fmt.Sprintf("serve-%d", cfg.seed))
		if err := traceBAInput(ctx, cfg, rep, tr, b); err != nil {
			return rep, err
		}
		// The write stream replayed one request at a time through the
		// layers a flush calls, from a fresh index of the set-up graph.
		batches := make([][]ingest.Mutation, len(writes))
		for i, w := range writes {
			batches[i] = []ingest.Mutation{w}
		}
		if _, err := replayFrom(ctx, cfg, rep, tr, b.g, batches); err != nil {
			return rep, err
		}
		if err := tr.write(filepath.Join(filepath.Dir(cfg.work), fmt.Sprintf("trace-serve-%d.jsonl", cfg.seed))); err != nil {
			return rep, err
		}
	}
	if err := shutdown(b.srv); err != nil {
		return rep, err
	}
	rss, err := peakRSSMB()
	rep.metrics["peak_rss_mb"] = rss
	return rep, err
}

// commitLayers fills the per-layer metrics read off the server's own
// registry between two scrapes around the timed phase.
func commitLayers(rep *report, before, after obs.Samples, wall float64, rt0, rt1 rtSample) {
	m := rep.metrics
	m["server.read_handler_mean_ms"] = routeMean(before, after,
		"GET /v1/graphs/{name}/truss", "POST /v1/graphs/{name}/query", "GET /v1/graphs/{name}/communities")
	m["server.write_handler_mean_ms"] = routeMean(before, after,
		"POST /v1/graphs/{name}/edges", "DELETE /v1/graphs/{name}/edges", "POST /v1/graphs/{name}/edges:stream")
	flushes := flushCount(before, after)
	m["ingest.flushes"] = flushes
	m["ingest.flushes_size"] = delta(before, after, "truss_ingest_flushes_total", "reason", ingest.FlushSize)
	m["ingest.flushes_drain"] = delta(before, after, "truss_ingest_flushes_total", "reason", ingest.FlushDrain)
	m["ingest.flush_size_mean"] = meanDelta(before, after, "truss_ingest_flush_batch_size", 1)
	m["ingest.flush_mean_ms"] = meanDelta(before, after, "truss_ingest_flush_seconds", 1e3)
	m["ingest.flusher_busy_share"] = delta(before, after, "truss_ingest_flush_seconds_sum") / wall
	m["server.compactions"] = delta(before, after, "truss_wal_compactions_total")
	m["go.gc_cycles"] = rt1.cycles(rt0)
	m["go.gc_pause_p99_ms"] = rt1.pauseP99ms(rt0)
	if flushes > 0 {
		m["go.alloc_mb_per_flush"] = rt1.allocMB(rt0) / flushes
	}
}

// flushCount is the number of group-committed flushes between two scrapes.
func flushCount(before, after obs.Samples) float64 {
	var n float64
	for _, r := range ingest.FlushReasons {
		n += delta(before, after, "truss_ingest_flushes_total", "reason", r)
	}
	return n
}

// routeMean is the server's mean handler time in milliseconds over the
// given routes, from truss_http_request_seconds deltas.
func routeMean(before, after obs.Samples, routes ...string) float64 {
	var sum, n float64
	for _, r := range routes {
		sum += delta(before, after, "truss_http_request_seconds_sum", "route", r)
		n += delta(before, after, "truss_http_request_seconds_count", "route", r)
	}
	if n == 0 {
		return 0
	}
	return sum / n * 1e3
}

// traceBAInput runs one traced build of the BA input for the build-side
// layers of serve and ingest.
func traceBAInput(ctx context.Context, cfg config, rep *report, tr *tracer, b *baSetup) error {
	dir := cfg.scratch("traced-build")
	bt, err := tracedBuild(ctx, tr, b.path, dir, "ba")
	if err != nil {
		return err
	}
	gc := rep.metrics["go.gc_cycles"]
	buildLayers(rep, []*buildTrace{bt})
	rep.metrics["go.gc_cycles"] = gc
	return os.RemoveAll(dir)
}

// replayFrom replays batches from a fresh index of g into a scratch store
// and reports the per-layer commit costs.
func replayFrom(ctx context.Context, cfg config, rep *report, tr *tracer, g *graph.Graph, batches [][]ingest.Mutation) (*replayStats, error) {
	res, err := core.DecomposeParallelCtx(ctx, g, 0, core.Hooks{})
	if err != nil {
		return nil, err
	}
	st, err := server.NewStore(cfg.scratch("replay"))
	if err != nil {
		return nil, err
	}
	rs, err := replay(ctx, tr, index.Build(res), batches, st, "ba")
	if err != nil {
		return nil, err
	}
	replayLayers(rep, rs)
	return rs, nil
}
