package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// span is one timed call into a layer, recorded by this package around
// the layer's public function. Parent 0 marks a top-level span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Run    string `json:"run"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps a run's spans in memory; write saves them at exit. Spans
// are opened and closed on the workload's own goroutine.
type tracer struct {
	run   string
	t0    time.Time
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// start opens a span and returns its id.
func (t *tracer) start(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Run: t.run,
		Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

// stop closes span id and returns its duration.
func (t *tracer) stop(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Nanoseconds()
	return time.Duration(s.End - s.Start)
}

// add records a span whose bounds were taken by a hook.
func (t *tracer) add(name string, parent int, start, end time.Time) time.Duration {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Run: t.run,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return end.Sub(start)
}

// self is span id's duration minus the part of it its children cover.
func (t *tracer) self(id int) time.Duration {
	s := t.spans[id-1]
	var kids [][2]int64
	for _, c := range t.spans {
		if c.Parent == id {
			kids = append(kids, [2]int64{max(c.Start, s.Start), min(c.End, s.End)})
		}
	}
	slices.SortFunc(kids, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	covered, reach := int64(0), s.Start
	for _, k := range kids {
		lo := max(k[0], reach)
		if k[1] > lo {
			covered += k[1] - lo
			reach = k[1]
		}
	}
	return time.Duration(s.End - s.Start - covered)
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// rtSample is a point-in-time read of the Go runtime's own counters.
type rtSample struct {
	allocBytes uint64
	gcCycles   uint64
	pauses     *metrics.Float64Histogram
}

var rtNames = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles", "/sched/pauses/total/gc:seconds"}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64(), pauses: s[2].Value.Float64Histogram()}
}

// allocMB and cycles are the deltas since an earlier sample.
func (a rtSample) allocMB(since rtSample) float64 {
	return float64(a.allocBytes-since.allocBytes) / (1 << 20)
}

func (a rtSample) cycles(since rtSample) float64 { return float64(a.gcCycles - since.gcCycles) }

// pauseP99ms is the 99th percentile of the GC pauses since an earlier
// sample, at the upper edge of the runtime histogram's bucket.
func (a rtSample) pauseP99ms(since rtSample) float64 {
	counts := make([]uint64, len(a.pauses.Counts))
	var total uint64
	for i := range counts {
		counts[i] = a.pauses.Counts[i] - since.pauses.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(0.99 * float64(total)))
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			hi := a.pauses.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = a.pauses.Buckets[i]
			}
			return hi * 1e3
		}
	}
	return 0
}

// scrape reads a server registry through its own Prometheus exposition.
func scrape(reg *obs.Registry) (obs.Samples, error) {
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		return nil, err
	}
	return obs.ParseExposition(&b)
}

// delta is after minus before for one series.
func delta(before, after obs.Samples, name string, labels ...string) float64 {
	return after.Value(name, labels...) - before.Value(name, labels...)
}

// meanDelta is a histogram's mean over the observations between two
// scrapes (0 when there were none), scaled by unit.
func meanDelta(before, after obs.Samples, hist string, unit float64, labels ...string) float64 {
	n := delta(before, after, hist+"_count", labels...)
	if n == 0 {
		return 0
	}
	return delta(before, after, hist+"_sum", labels...) / n * unit
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("VmHWM not in /proc/self/status")
}

// hostStamp records where a result was measured.
func hostStamp() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d goos=%s goarch=%s go=%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH, runtime.Version(), cpu)
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile is the nearest-rank q-quantile of ds, in milliseconds.
func quantileMS(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(ds))
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(i, 0)]) / 1e6
}

// beyond counts samples strictly above the nearest-rank q-quantile: a
// percentile is reported only when at least ten samples lie past it.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }

// tail names and reports the highest of the usual tail percentiles that
// has at least ten samples beyond it, with the count beyond.
func tail(what string, ds []time.Duration) string {
	for _, q := range []float64{0.999, 0.99, 0.98, 0.95, 0.9} {
		if b := beyond(len(ds), q); b >= 10 {
			return fmt.Sprintf("%s_p%s_ms = %.3f ms (%d beyond)", what,
				strings.TrimPrefix(strconv.FormatFloat(q*100, 'f', -1, 64), "0"), quantileMS(ds, q), b)
		}
	}
	return fmt.Sprintf("%s: %d samples, too few for a tail percentile", what, len(ds))
}

// seconds times f.
func seconds(f func() error) (float64, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0).Seconds(), err
}
