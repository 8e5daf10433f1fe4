package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/gio"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/triangle"
)

// buildTrace is one traced build: the calls server.Build makes, in its
// order and each under a span (load, decompose, index, persist), then the
// pre-peel layers called on their own.
type buildTrace struct {
	load, decompose, prepeel, peel, index, persist time.Duration
	orient, support, kernel                        time.Duration
	levels, rounds, peakFrontier                   int
	roundP50us, probeShare                         float64
	allocMB, gcCycles                              float64
	bytes                                          int64
	total, unattributed                            time.Duration // the build span and its self time
}

// phases is the sum of the top-level spans, the part of a build the
// attribution check holds against the untraced build_s.
func (b *buildTrace) phases() time.Duration { return b.load + b.decompose + b.index + b.persist }

func tracedBuild(ctx context.Context, tr *tracer, path, dir, name string) (*buildTrace, error) {
	bt := &buildTrace{}
	rt0 := readRuntime()
	root := tr.start("build", 0)
	id := tr.start("gio.load", root)
	g, err := gio.LoadGraph(path, nil)
	bt.load = tr.stop(id)
	if err != nil {
		return nil, err
	}
	// The decompose span splits at the first bulk-synchronous round:
	// before it, orientation and initial supports; from it on, peeling.
	var first, last time.Time
	var rounds []float64
	hooks := core.Hooks{OnRound: func(int32, int) {
		now := time.Now()
		if first.IsZero() {
			first = now
		} else {
			rounds = append(rounds, float64(now.Sub(last).Microseconds()))
		}
		last = now
	}}
	id = tr.start("core.decompose", root)
	start := time.Now()
	res, err := core.DecomposeParallelCtx(ctx, g, 0, hooks)
	end := time.Now()
	bt.decompose = tr.stop(id)
	if err != nil {
		return nil, err
	}
	if !first.IsZero() {
		rounds = append(rounds, float64(end.Sub(last).Microseconds()))
		bt.prepeel = tr.add("core.prepeel", id, start, first)
		bt.peel = tr.add("core.peel", id, first, end)
	}
	bt.roundP50us = median(rounds)
	if p := res.PKT; p != nil {
		bt.levels, bt.rounds, bt.peakFrontier = p.Levels, p.Rounds, p.PeakFrontier
		if d := p.MergeDispatch + p.ProbeDispatch; d > 0 {
			bt.probeShare = float64(p.ProbeDispatch) / float64(d)
		}
	}
	id = tr.start("index.build", root)
	ix := index.Build(res)
	bt.index = tr.stop(id)
	st, err := server.NewStore(dir)
	if err != nil {
		return nil, err
	}
	id = tr.start("indexfile.write", root)
	err = st.SaveIndexSnapshot(name, path, 1, ix)
	bt.persist = tr.stop(id)
	bt.total = tr.stop(root)
	if err != nil {
		return nil, err
	}
	bt.unattributed = tr.self(root)
	rt1 := readRuntime()
	bt.allocMB, bt.gcCycles = rt1.allocMB(rt0), rt1.cycles(rt0)
	fi, err := os.Stat(st.IndexPath(name))
	if err != nil {
		return nil, err
	}
	bt.bytes = fi.Size()

	w := runtime.GOMAXPROCS(0)
	id = tr.start("graph.orient", 0)
	o := graph.BuildOrientedParallel(g, w)
	bt.orient = tr.stop(id)
	id = tr.start("triangle.support", 0)
	triangle.SupportsOriented(o, w)
	bt.support = tr.stop(id)
	id = tr.start("triangle.kernel", 0)
	triangle.NewKernel(g)
	bt.kernel = tr.stop(id)
	return bt, nil
}

// buildLayers reports the medians of traced builds as per-layer metrics.
func buildLayers(rep *report, bts []*buildTrace) {
	med := func(f func(*buildTrace) float64) float64 {
		xs := make([]float64, len(bts))
		for i, b := range bts {
			xs[i] = f(b)
		}
		return median(xs)
	}
	sec := func(f func(*buildTrace) time.Duration) float64 {
		return med(func(b *buildTrace) float64 { return f(b).Seconds() })
	}
	m := rep.metrics
	m["gio.load_s"] = sec(func(b *buildTrace) time.Duration { return b.load })
	m["core.decompose_s"] = sec(func(b *buildTrace) time.Duration { return b.decompose })
	m["core.prepeel_s"] = sec(func(b *buildTrace) time.Duration { return b.prepeel })
	m["core.peel_s"] = sec(func(b *buildTrace) time.Duration { return b.peel })
	m["graph.orient_s"] = sec(func(b *buildTrace) time.Duration { return b.orient })
	m["triangle.support_s"] = sec(func(b *buildTrace) time.Duration { return b.support })
	m["triangle.kernel_s"] = sec(func(b *buildTrace) time.Duration { return b.kernel })
	m["index.build_s"] = sec(func(b *buildTrace) time.Duration { return b.index })
	m["indexfile.write_s"] = sec(func(b *buildTrace) time.Duration { return b.persist })
	m["core.levels"] = med(func(b *buildTrace) float64 { return float64(b.levels) })
	m["core.rounds"] = med(func(b *buildTrace) float64 { return float64(b.rounds) })
	m["core.peak_frontier"] = med(func(b *buildTrace) float64 { return float64(b.peakFrontier) })
	m["core.round_p50_us"] = med(func(b *buildTrace) float64 { return b.roundP50us })
	m["core.probe_share"] = med(func(b *buildTrace) float64 { return b.probeShare })
	m["indexfile.bytes"] = med(func(b *buildTrace) float64 { return float64(b.bytes) })
	m["go.alloc_mb"] = med(func(b *buildTrace) float64 { return b.allocMB })
	m["go.gc_cycles"] = med(func(b *buildTrace) float64 { return b.gcCycles })
}

// replayStats accumulates a replay of mutation batches through the layer
// functions a flush calls.
type replayStats struct {
	coalesce, update, patch, wal []float64 // milliseconds per batch
	region, fallbacks, parallel  int
	walBytes                     int64
	muts                         int
}

// replay applies batches to ix the way the server's flush does —
// ingest.Coalesce against the live graph, dynamic.Update, TrussIndex.Patch,
// Store.AppendMutation — each under a span.
func replay(ctx context.Context, tr *tracer, ix *index.TrussIndex, batches [][]ingest.Mutation, st *server.Store, name string) (*replayStats, error) {
	rs := &replayStats{}
	if err := os.MkdirAll(filepath.Dir(st.IndexPath(name)), 0o755); err != nil {
		return nil, err
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	var version uint64
	var walSize int64
	for _, b := range batches {
		rs.muts += len(b)
		root := tr.start("flush", 0)
		id := tr.start("ingest.coalesce", root)
		adds, dels := ingest.Coalesce(b, ix.Graph().HasEdge)
		rs.coalesce = append(rs.coalesce, ms(tr.stop(id)))
		if len(adds) == 0 && len(dels) == 0 {
			tr.stop(root)
			continue
		}
		id = tr.start("dynamic.update", root)
		res, err := dynamic.Update(ctx, ix.Graph(), ix.PhiView(), dynamic.Batch{Adds: adds, Dels: dels}, dynamic.Config{})
		rs.update = append(rs.update, ms(tr.stop(id)))
		if err != nil {
			return nil, fmt.Errorf("replay update: %w", err)
		}
		id = tr.start("index.patch", root)
		ix = ix.Patch(res.G, res.Phi, res.KMax, res.Remap, res.Changed)
		rs.patch = append(rs.patch, ms(tr.stop(id)))
		version++
		id = tr.start("server.wal_append", root)
		size, err := st.AppendMutation(name, version, adds, dels)
		rs.wal = append(rs.wal, ms(tr.stop(id)))
		tr.stop(root)
		if err != nil {
			return nil, fmt.Errorf("replay WAL append: %w", err)
		}
		rs.walBytes += size - walSize
		walSize = size
		rs.region += res.Stats.Region
		rs.parallel += res.Stats.ParallelPeels
		if res.Stats.FellBack {
			rs.fallbacks++
		}
	}
	return rs, nil
}

// add folds another replay into rs.
func (rs *replayStats) add(o *replayStats) {
	rs.coalesce = append(rs.coalesce, o.coalesce...)
	rs.update = append(rs.update, o.update...)
	rs.patch = append(rs.patch, o.patch...)
	rs.wal = append(rs.wal, o.wal...)
	rs.region += o.region
	rs.fallbacks += o.fallbacks
	rs.parallel += o.parallel
	rs.walBytes += o.walBytes
	rs.muts += o.muts
}

// gate is the attribution check: a traced run's phases must account for
// the untraced total within 10%. It holds at full size only; a tiny run's
// totals are a few milliseconds.
func gate(cfg config, what string, share float64) error {
	if cfg.size.name == "full" && verdict(share) != "within 10%" {
		return checkf("%s phases cover %.1f%% of the total, outside 90-110%%", what, 100*share)
	}
	return nil
}

// verdict states whether an attribution share is within 10% of the total.
func verdict(share float64) string {
	if share < 0.9 || share > 1.1 {
		return "OUTSIDE 10%"
	}
	return "within 10%"
}

// totalMS is the replay's time across all layers.
func (rs *replayStats) totalMS() float64 {
	var t float64
	for _, xs := range [][]float64{rs.coalesce, rs.update, rs.patch, rs.wal} {
		for _, x := range xs {
			t += x
		}
	}
	return t
}

// mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// replayLayers reports a replay as per-layer metrics, per batch.
func replayLayers(rep *report, rs *replayStats) {
	m := rep.metrics
	m["ingest.coalesce_ms"] = mean(rs.coalesce)
	m["dynamic.update_ms"] = mean(rs.update)
	m["index.patch_ms"] = mean(rs.patch)
	m["server.wal_append_ms"] = mean(rs.wal)
	if n := len(rs.update); n > 0 {
		m["dynamic.region_edges_mean"] = float64(rs.region) / float64(n)
	}
	m["dynamic.fallbacks"] = float64(rs.fallbacks)
	m["dynamic.parallel_peels"] = float64(rs.parallel)
	if rs.muts > 0 {
		m["server.wal_bytes_per_mutation"] = float64(rs.walBytes) / float64(rs.muts)
	}
}

// restart is server.New + Recover on dir until graph name answers a
// query: the warm restart a deploy pays. It returns the serving server,
// its registry, and the seconds taken.
func restart(dir, name string, probe graph.Edge) (*server.Server, *obs.Registry, float64, error) {
	reg := obs.NewRegistry()
	t0 := time.Now()
	s := server.New(server.Options{DataDir: dir, Metrics: reg})
	if err := s.Recover(); err != nil {
		return nil, nil, 0, fmt.Errorf("recover %s: %w", dir, err)
	}
	e, ok := s.Lookup(name)
	if !ok || e.Index == nil {
		return nil, nil, 0, checkf("graph %q not served after recovery", name)
	}
	if _, found := e.Index.TrussNumber(probe.U, probe.V); !found {
		return nil, nil, 0, checkf("edge %v missing after recovery", probe)
	}
	return s, reg, time.Since(t0).Seconds(), nil
}

// recoverLayers fills the restart per-layer metrics from the registries
// of timed restarts.
func recoverLayers(rep *report, regs []*obs.Registry, secs []float64) error {
	var open, replayS, batches []float64
	for i, reg := range regs {
		s, err := scrape(reg)
		if err != nil {
			return err
		}
		o := s.Value("truss_indexfile_open_seconds_sum")
		open = append(open, o*1e3)
		replayS = append(replayS, secs[i]-o)
		batches = append(batches, s.Value("truss_wal_replayed_batches_total"))
	}
	rep.metrics["indexfile.open_ms"] = median(open)
	rep.metrics["server.recover_replay_s"] = median(replayS)
	rep.metrics["server.replayed_batches"] = median(batches)
	return nil
}

// shutdown stops a server, bounded so a wedged drain cannot hang the run.
func shutdown(s *server.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return s.Shutdown(ctx)
}
