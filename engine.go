package truss

import (
	"fmt"

	"repro/internal/embu"
	"repro/internal/emtd"
)

// Engine selects which of the reproduced decomposition algorithms a Run
// uses. The paper presents one problem solved by five interchangeable
// algorithms; Engine is the tuning knob that picks among them behind the
// single Run entry point.
type Engine int

const (
	// EngineInMem is the improved in-memory algorithm (TD-inmem+,
	// Algorithm 2): O(m^1.5) time, O(m+n) space. The default.
	EngineInMem Engine = iota
	// EngineBaseline is Cohen's in-memory algorithm (TD-inmem,
	// Algorithm 1), kept as the paper's baseline.
	EngineBaseline
	// EngineParallel is level-synchronized parallel peeling across cores
	// (a multicore extension beyond the paper); see WithWorkers.
	EngineParallel
	// EngineBottomUp is the I/O-efficient bottom-up decomposition
	// (Algorithms 3-4) for graphs larger than memory; see WithBudget.
	EngineBottomUp
	// EngineTopDown is the I/O-efficient top-down computation of the
	// top-t k-classes (Algorithm 7); see WithTopT.
	EngineTopDown
	// EngineMapReduce is Cohen's distributed algorithm (TD-MR) on the
	// in-process MapReduce simulator, the baseline of Table 4.
	EngineMapReduce
)

var engineNames = map[Engine]string{
	EngineInMem:     "inmem",
	EngineBaseline:  "baseline",
	EngineParallel:  "parallel",
	EngineBottomUp:  "bottomup",
	EngineTopDown:   "topdown",
	EngineMapReduce: "mapreduce",
}

func (e Engine) String() string {
	if n, ok := engineNames[e]; ok {
		return n
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// ParseEngine resolves an engine name as used on the trussd command line:
// inmem, baseline, parallel, bottomup, topdown, mapreduce (alias mr).
func ParseEngine(s string) (Engine, error) {
	if s == "mr" {
		return EngineMapReduce, nil
	}
	for e, n := range engineNames {
		if n == s {
			return e, nil
		}
	}
	return 0, fmt.Errorf("truss: unknown engine %q (want inmem, baseline, parallel, bottomup, topdown, or mr)", s)
}

// Progress stages reported to a WithProgress observer, in order of
// occurrence.
const (
	// StageLoad: the source is being materialized (in-memory engines) or
	// spooled to disk (external engines).
	StageLoad = "load"
	// StageDecompose: the engine proper has started.
	StageDecompose = "decompose"
	// StageLevel: the engine reached peeling level / candidate round K.
	StageLevel = "level"
	// StageDone: the decomposition finished; K carries the final kmax.
	StageDone = "done"
)

// Progress is one observed step of a Run, delivered synchronously on the
// decomposing goroutine (observers must be cheap and must not block).
type Progress struct {
	// Engine is the engine doing the work.
	Engine Engine
	// Stage is one of the Stage* constants.
	Stage string
	// K is the peeling level or candidate round for StageLevel events and
	// the final kmax for StageDone; 0 otherwise.
	K int32
}

// Option configures a Run.
type Option func(*runConfig)

// runConfig is the resolved option set of one Run.
type runConfig struct {
	engine   Engine
	budget   int64
	strategy PartitionStrategy
	seed     int64
	topT     int
	workers  int
	tempDir  string
	stats    *IOStats
	progress func(Progress)

	// statsReadBase/statsWriteBase snapshot the (cumulative, possibly
	// shared across runs) IOStats counters at Run entry, so the metrics
	// layer can attribute exactly this run's disk traffic.
	statsReadBase  int64
	statsWriteBase int64
}

// WithEngine selects the decomposition algorithm (default EngineInMem).
func WithEngine(e Engine) Option { return func(c *runConfig) { c.engine = e } }

// WithBudget sets the external engines' memory budget M, measured in
// adjacency entries (an in-memory subgraph with e edges consumes 2e
// entries). 0 selects a default suitable for graphs of a few million
// edges. It also bounds the record buffer of the out-of-core edge
// deduplication that file and reader sources run before an external
// engine.
func WithBudget(entries int64) Option { return func(c *runConfig) { c.budget = entries } }

// WithPartition selects the vertex-partitioning strategy of the external
// engines' LowerBounding stage. The default is sequential, the zero
// PartitionStrategy; LowerBounding switches to randomized, which carries
// the O(m/M) iteration bound, after an iteration that makes no progress.
// The local peel of Procedures 9 and 10 always partitions randomly.
func WithPartition(s PartitionStrategy) Option { return func(c *runConfig) { c.strategy = s } }

// WithSeed drives randomized partitioning.
func WithSeed(seed int64) Option { return func(c *runConfig) { c.seed = seed } }

// WithTopT asks EngineTopDown for only the top-t k-classes (0 = all
// classes). Other engines ignore it.
func WithTopT(t int) Option { return func(c *runConfig) { c.topT = t } }

// WithWorkers sets the worker count (0 = GOMAXPROCS) of EngineParallel's
// peel and of Decomposition.Update on any in-memory engine's result, where
// it bounds the goroutines of the region re-peel and of the full recompute
// that Update falls back to. The external and MapReduce engines ignore it.
func WithWorkers(n int) Option { return func(c *runConfig) { c.workers = n } }

// WithTempDir sets the directory for spools and sort runs of the external
// engines (default os.TempDir()).
func WithTempDir(dir string) Option { return func(c *runConfig) { c.tempDir = dir } }

// WithStats accumulates every byte the run moves to and from disk into st
// (the Aggarwal-Vitter accounting the paper's I/O analysis uses).
func WithStats(st *IOStats) Option { return func(c *runConfig) { c.stats = st } }

// WithProgress registers an observer for the run's stage transitions and
// peeling levels. fn runs synchronously on the decomposing goroutine: keep
// it cheap, and use it together with context cancellation to abort runs
// from the outside.
func WithProgress(fn func(Progress)) Option { return func(c *runConfig) { c.progress = fn } }

// emit delivers one progress event, if an observer is registered.
func (c *runConfig) emit(stage string, k int32) {
	if c.progress != nil {
		c.progress(Progress{Engine: c.engine, Stage: stage, K: k})
	}
}

// levelHook adapts the observer to the engines' per-level callbacks.
func (c *runConfig) levelHook() func(k int32) {
	if c.progress == nil {
		return nil
	}
	return func(k int32) { c.emit(StageLevel, k) }
}

// embuConfig translates the run options for the bottom-up engine.
func (c *runConfig) embuConfig() embu.Config {
	return embu.Config{
		Budget:   c.budget,
		Strategy: c.strategy,
		Seed:     c.seed,
		TempDir:  c.tempDir,
		Stats:    c.stats,
		OnRound:  c.levelHook(),
	}
}

// emtdConfig translates the run options for the top-down engine.
func (c *runConfig) emtdConfig() emtd.Config {
	return emtd.Config{
		TopT:     c.topT,
		Budget:   c.budget,
		Strategy: c.strategy,
		Seed:     c.seed,
		TempDir:  c.tempDir,
		Stats:    c.stats,
		OnRound:  c.levelHook(),
	}
}
