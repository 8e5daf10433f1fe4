// Command trussbench is the repository benchmark. It runs one workload
// against the program's public surfaces in this process, checks every
// answer, and prints one JSON result as the last line of standard output.
// From the repository root:
//
//	python3 trussbench/run.py --workload build --seed 1 --seconds 20 --trace 0
//
// run.py builds this package with its caches under .bench_build/; inside
// this directory, go run . takes the same flags. go test here runs every
// workload at a tiny size and checks the output against BENCHMARK.json.
//
// Workloads (see BENCHMARK.json for why each exists):
//
//   - build: a seeded LiveJournal-shaped graph (RMAT + planted cliques,
//     kmax 120) is loaded from SNAP text and built into a durable served
//     index (gio.LoadGraph + server.Build with a data dir), repeatedly.
//   - serve: a seeded Barabasi-Albert graph is built durably, recovered
//     off its mmap'd snapshot, and served over loopback HTTP under an
//     open-loop mix of reads and unary durable writes. The read mix (80%
//     point, 16% 64-pair batch, 4% top-truss communities) is an assumed
//     shape, not one taken from recorded traffic.
//   - ingest: the same BA shape takes a seeded, balanced mutation stream
//     through the NDJSON firehose, then restarts from its data dir.
//
// Every workload reports every end-to-end metric, so the set is what each
// workload measures on its own input: set-up time, peak memory, file to
// durable index build time, snapshot bytes per edge, warm restart time,
// read service time (send to answer; median and 90th percentile, each
// the median over windows of 1000 reads), and write service time (send
// to acknowledgement, median): build's unary inserts on the built index,
// serve's unary writes, ingest's firehose chunk acks. The rest of what a
// workload measures is printed on "#" lines before the result: read and
// write latency from the due time with their tails, firehose throughput,
// error ratio, sample counts, generator lateness, the host and the seed.
// With -trace 1 the result carries the per-layer metrics instead,
// measured by calling each layer's public functions under spans recorded
// in this package and written to <work>/trace-<workload>-<seed>.jsonl; a
// per-layer metric a workload does not exercise reads 0.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics of an untraced run, in report order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"build_s", "s"},
	{"index_bytes_per_edge", "B"},
	{"recover_s", "s"},
	{"read_service_p50_ms", "ms"},
	{"read_service_p90_ms", "ms"},
	{"write_service_p50_ms", "ms"},
}

// perLayer lists the metrics of a traced run, in report order.
var perLayer = []metricDef{
	{"gio.load_s", "s"},
	{"core.decompose_s", "s"},
	{"core.prepeel_s", "s"},
	{"core.peel_s", "s"},
	{"graph.orient_s", "s"},
	{"triangle.support_s", "s"},
	{"triangle.kernel_s", "s"},
	{"core.levels", "count"},
	{"core.rounds", "count"},
	{"core.peak_frontier", "count"},
	{"core.round_p50_us", "us"},
	{"core.probe_share", "ratio"},
	{"index.build_s", "s"},
	{"indexfile.write_s", "s"},
	{"indexfile.bytes", "B"},
	{"indexfile.open_ms", "ms"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_p99_ms", "ms"},
	{"go.alloc_mb_per_flush", "MB"},
	{"loadgen.late_p50_ms", "ms"},
	{"loadgen.late_max_ms", "ms"},
	{"client.read_service_p50_ms", "ms"},
	{"client.write_service_p50_ms", "ms"},
	{"server.read_handler_mean_ms", "ms"},
	{"server.write_handler_mean_ms", "ms"},
	{"index.lookup_us", "us"},
	{"ingest.flushes", "count"},
	{"ingest.flushes_size", "count"},
	{"ingest.flushes_drain", "count"},
	{"ingest.flush_size_mean", "count"},
	{"ingest.flush_mean_ms", "ms"},
	{"ingest.flusher_busy_share", "ratio"},
	{"ingest.coalesce_ms", "ms"},
	{"dynamic.update_ms", "ms"},
	{"index.patch_ms", "ms"},
	{"server.wal_append_ms", "ms"},
	{"dynamic.region_edges_mean", "count"},
	{"dynamic.parallel_peels", "count"},
	{"dynamic.fallbacks", "count"},
	{"server.wal_bytes_per_mutation", "B"},
	{"server.compactions", "count"},
	{"server.snapshot_s", "s"},
	{"server.replayed_batches", "count"},
	{"server.recover_replay_s", "s"},
	{"trace.build_attributed", "ratio"},
	{"trace.build_overhead", "ratio"},
	{"trace.flush_attributed", "ratio"},
}

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	size     size
	work     string // scratch directory, removed at exit
}

// report is what a workload hands back: metric values by name, the
// operation tally, and extra "#" lines for the human reader.
type report struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	notes     []string
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// errCheck marks a failed correctness check: the run prints its result
// with "correct": false and exits non-zero.
var errCheck = errors.New("correctness check failed")

func checkf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCheck, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config) (*report, error){
	"build":  runBuild,
	"serve":  runServe,
	"ingest": runIngest,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, runs the workload, prints its result to stdout, and
// returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("trussbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: build, serve or ingest")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 20, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	sizeName := fs.String("size", "full", "input scale: full, or tiny for the output self-test")
	workDir := fs.String("work", ".bench_build", "directory for the run's scratch files and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*workload]
	sz, szOK := sizes[*sizeName]
	if !ok || !szOK || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "trussbench: bad arguments (workload %q, size %q, seconds %d, trace %d)\n",
			*workload, *sizeName, *seconds, *trace)
		return 2
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "trussbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(*workDir, fmt.Sprintf("run-%s-%d-", *workload, *seed))
	if err != nil {
		fmt.Fprintln(stderr, "trussbench:", err)
		return 1
	}
	cfg := config{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, size: sz, work: work,
	}
	rep, runErr := wl(cfg)
	os.RemoveAll(work)
	if runErr != nil {
		fmt.Fprintln(stderr, "trussbench:", runErr)
		if !errors.Is(runErr, errCheck) {
			return 1
		}
	}
	if rep == nil {
		rep = newReport()
	}
	code, err := emit(stdout, cfg, rep, runErr == nil)
	if err != nil {
		fmt.Fprintln(stderr, "trussbench:", err)
		return 1
	}
	return code
}

// emit prints the notes and the result line, and returns the exit code.
// A metric the catalog names but the run did not set is an error in this
// program, not in the one measured.
func emit(w io.Writer, cfg config, rep *report, correct bool) (int, error) {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	host := hostStamp()
	fmt.Fprintf(w, "# workload=%s seed=%d seconds=%d trace=%v size=%s %s\n",
		cfg.workload, cfg.seed, int(cfg.seconds/time.Second), cfg.trace, cfg.size.name, host)
	for _, n := range rep.notes {
		fmt.Fprintln(w, "#", n)
	}
	if rep.attempted > 0 {
		// Always 0 on a correct run, so it rides in attempted/failed
		// rather than among the metrics, which must never read 0.
		fmt.Fprintf(w, "# error_ratio = %g (%d of %d operations failed)\n",
			float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted)
	}
	out := result{Correct: correct, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok && !cfg.trace {
			return 1, fmt.Errorf("workload %s did not measure %s", cfg.workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 1, fmt.Errorf("metric %s is not finite", d.name)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "# %s = %g %s\n", d.name, v, d.unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(w, string(line))
	if !correct || out.Attempted < 1 {
		return 1, nil
	}
	return 0, nil
}

// scratch joins elements under the run's scratch directory.
func (c config) scratch(elem ...string) string {
	return filepath.Join(append([]string{c.work}, elem...)...)
}
