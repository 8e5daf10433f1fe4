package truss

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/embu"
	"repro/internal/emtd"
	"repro/internal/mapreduce"
	"repro/internal/obs"
)

// Run computes the truss decomposition of src with the engine selected by
// opts (EngineInMem when none is given) and returns the result behind the
// common Decomposition interface. It is the single entry point to all five
// of the paper's algorithms plus the parallel extension:
//
//	d, err := truss.Run(ctx, truss.FromFile("lj.txt"),
//	    truss.WithEngine(truss.EngineBottomUp),
//	    truss.WithBudget(1<<24))
//	defer d.Close()
//
// The context is honored throughout: peeling levels in the in-memory
// engines, partition rounds and spool passes in the external engines, and
// fixpoint passes in the MapReduce engine all poll it, so cancellation and
// deadlines abort a run promptly with ctx.Err(). WithProgress observes the
// run; WithStats accounts its disk traffic.
func Run(ctx context.Context, src Source, opts ...Option) (Decomposition, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if src == nil {
		return nil, errors.New("truss: Run requires a non-nil Source")
	}
	var cfg runConfig
	for _, opt := range opts {
		if opt != nil {
			opt(&cfg)
		}
	}
	runner, ok := engines[cfg.engine]
	if !ok {
		return nil, fmt.Errorf("truss: unknown engine %v", cfg.engine)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg.emit(StageLoad, 0)
	if cfg.stats != nil {
		cfg.statsReadBase = cfg.stats.BytesRead()
		cfg.statsWriteBase = cfg.stats.BytesWritten()
	}
	start := time.Now()
	d, err := runner(ctx, src, &cfg)
	recordRun(&cfg, start, err)
	if err != nil {
		return nil, fmt.Errorf("truss: %v engine on %s: %w", cfg.engine, src.describe(), err)
	}
	cfg.emit(StageDone, d.KMax())
	return d, nil
}

// recordRun reports one Run outcome into the process-default observability
// registry — the same registry a trussd server's /metrics exposes, so
// embedded library runs and served traffic land on one dashboard. When the
// run accumulated I/O stats (WithStats), the disk traffic is recorded too:
// the gio.Stats counters are cumulative, so the delta since Run entry is
// what gets added. The delta is exact for the common patterns (one stats
// object per run, or sequential runs sharing one); concurrent runs sharing
// a single IOStats see each other's interleaved traffic in their deltas —
// give concurrent runs their own stats objects for per-run attribution.
func recordRun(cfg *runConfig, start time.Time, err error) {
	reg := obs.Default()
	status := "ok"
	if err != nil {
		status = "error"
	}
	engine := cfg.engine.String()
	reg.Counter("truss_run_total", "truss.Run invocations by engine and outcome.",
		"engine", engine, "status", status).Inc()
	reg.Histogram("truss_run_seconds", "truss.Run end-to-end duration by engine.",
		obs.WideBuckets, "engine", engine).Observe(time.Since(start).Seconds())
	if cfg.stats != nil {
		reg.Counter("truss_run_io_read_bytes_total", "Bytes read from disk by runs under WithStats.",
			"engine", engine).Add(cfg.stats.BytesRead() - cfg.statsReadBase)
		reg.Counter("truss_run_io_written_bytes_total", "Bytes written to disk by runs under WithStats.",
			"engine", engine).Add(cfg.stats.BytesWritten() - cfg.statsWriteBase)
	}
}

// recordPKT reports the shape of one PKT run (rounds, frontier sizes,
// kernel dispatch mix) into the default registry, alongside the Run
// counters — the numbers that show whether the bulk-synchronous machinery
// actually parallelized (few huge frontiers) or degenerated to lock-step
// (many tiny ones).
func recordPKT(s *core.PKTStats) {
	reg := obs.Default()
	reg.Counter("truss_pkt_runs_total", "PKT bulk-synchronous decompositions completed.").Inc()
	reg.Counter("truss_pkt_levels_total", "Populated peeling levels visited by PKT runs.").Add(int64(s.Levels))
	reg.Counter("truss_pkt_rounds_total", "Bulk-synchronous sub-rounds (barriers) executed by PKT runs.").Add(int64(s.Rounds))
	reg.Counter("truss_pkt_frontier_edges_total", "Edges peeled through PKT frontiers.").Add(int64(s.FrontierEdges))
	reg.Counter("truss_pkt_kernel_dispatch_total", "Adaptive triangle-kernel strategy choices by PKT runs.",
		"kernel", "merge").Add(s.MergeDispatch)
	reg.Counter("truss_pkt_kernel_dispatch_total", "Adaptive triangle-kernel strategy choices by PKT runs.",
		"kernel", "probe").Add(s.ProbeDispatch)
	reg.Gauge("truss_pkt_peak_frontier_edges", "Largest sub-round frontier of the most recent PKT run.").
		Set(int64(s.PeakFrontier))
}

// engineRunner is one pluggable decomposition engine: it consumes the
// source the way it prefers (materialize or stream) and returns the
// adapted result.
type engineRunner func(ctx context.Context, src Source, cfg *runConfig) (Decomposition, error)

// engines is the registry Run dispatches on. Each of the paper's
// algorithms is one entry; engine choice is a tuning knob, not a separate
// API.
var engines = map[Engine]engineRunner{
	EngineInMem:     runInMemory(EngineInMem),
	EngineBaseline:  runInMemory(EngineBaseline),
	EngineParallel:  runInMemory(EngineParallel),
	EngineBottomUp:  runBottomUp,
	EngineTopDown:   runTopDown,
	EngineMapReduce: runMapReduce,
}

// runInMemory builds the runner for the three in-memory peelers.
func runInMemory(eng Engine) engineRunner {
	return func(ctx context.Context, src Source, cfg *runConfig) (Decomposition, error) {
		g, err := src.load(ctx, cfg.stats)
		if err != nil {
			return nil, err
		}
		cfg.emit(StageDecompose, 0)
		hooks := core.Hooks{OnLevel: cfg.levelHook()}
		var res *core.Result
		switch eng {
		case EngineBaseline:
			res, err = core.DecomposeBaselineCtx(ctx, g, hooks)
		case EngineParallel:
			res, err = core.DecomposeParallelCtx(ctx, g, cfg.workers, hooks)
		default:
			res, err = core.DecomposeCtx(ctx, g, hooks)
		}
		if err != nil {
			return nil, err
		}
		if res.PKT != nil {
			recordPKT(res.PKT)
		}
		return &inmemDecomposition{eng: eng, res: res, workers: cfg.workers}, nil
	}
}

// Open is Run for dynamic graphs: it decomposes src with an in-memory
// engine and returns a Decomposition whose Update method is guaranteed to
// work, so the caller can keep it resident and maintain it under edge
// insertions and deletions:
//
//	d, err := truss.Open(ctx, truss.FromFile("graph.txt"))
//	...
//	stats, err := d.Update(ctx, []truss.Edge{{U: 1, V: 9}}, nil)
//
// Options are those of Run; WithWorkers also bounds Update's parallelism.
// Selecting an engine without incremental maintenance (bottomup, topdown,
// mapreduce) is an error here rather than a surprise at the first Update.
func Open(ctx context.Context, src Source, opts ...Option) (Decomposition, error) {
	// Reject the nil source before option processing: falling through to
	// Run's generic check after engine validation would report the wrong
	// entry point.
	if src == nil {
		return nil, errors.New("truss: Open requires a non-nil Source")
	}
	var cfg runConfig
	for _, opt := range opts {
		if opt != nil {
			opt(&cfg)
		}
	}
	switch cfg.engine {
	case EngineInMem, EngineBaseline, EngineParallel:
	default:
		return nil, fmt.Errorf("truss: Open requires an in-memory engine (inmem, baseline, parallel), not %v", cfg.engine)
	}
	return Run(ctx, src, opts...)
}

func runBottomUp(ctx context.Context, src Source, cfg *runConfig) (Decomposition, error) {
	sp, n, err := src.stream(ctx, cfg.tempDir, cfg.budget, cfg.stats)
	if err != nil {
		return nil, err
	}
	defer sp.Remove()
	cfg.emit(StageDecompose, 0)
	res, err := embu.Decompose(ctx, sp, n, cfg.embuConfig())
	if err != nil {
		return nil, err
	}
	return &bottomUpDecomposition{res: res}, nil
}

func runTopDown(ctx context.Context, src Source, cfg *runConfig) (Decomposition, error) {
	sp, n, err := src.stream(ctx, cfg.tempDir, cfg.budget, cfg.stats)
	if err != nil {
		return nil, err
	}
	defer sp.Remove()
	cfg.emit(StageDecompose, 0)
	res, err := emtd.Decompose(ctx, sp, n, cfg.emtdConfig())
	if err != nil {
		return nil, err
	}
	return &topDownDecomposition{res: res}, nil
}

func runMapReduce(ctx context.Context, src Source, cfg *runConfig) (Decomposition, error) {
	g, err := src.load(ctx, cfg.stats)
	if err != nil {
		return nil, err
	}
	cfg.emit(StageDecompose, 0)
	res, err := mapreduce.TrussDecomposeCtx(ctx, g, cfg.levelHook())
	if err != nil {
		return nil, err
	}
	return &mapReduceDecomposition{res: res, n: g.NumVertices()}, nil
}
