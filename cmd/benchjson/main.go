// Command benchjson converts `go test -bench` text output into a JSON
// artifact (BENCH_PR.json) so CI can track the performance trajectory of
// the engines across PRs, and compares such artifacts against the
// committed baseline.
//
// Usage:
//
//	go test -run '^$' -bench '^BenchmarkRun$' -benchtime 1x . | tee bench.txt
//	benchjson -in bench.txt -out BENCH_PR.json
//	benchjson -compare BENCH_PR.json -baseline BENCH_BASELINE.json -max-ratio 3.0
//	benchjson -overhead BENCH_PR.json -num 'BenchmarkObsOverhead/instrumented' \
//	    -den 'BenchmarkObsOverhead/bare' -max-overhead 1.05
//
// Every benchmark line is captured; lines under BenchmarkRun/<engine>/<graph>
// additionally get engine and graph fields, yielding the engine × graph →
// ns/op matrix the roadmap's perf tracking asks for.
//
// Compare mode prints a per-benchmark ratio table and flags entries slower
// than the baseline by more than -threshold (default 1.5x). With -max-ratio
// set it is a blocking gate: any common benchmark slower than the baseline
// by more than that factor exits non-zero and fails the CI job. Refresh
// BENCH_BASELINE.json as described in the README when a deliberate change
// moves the numbers.
//
// Overhead mode gates one benchmark against another within the same
// artifact — CI uses it to hold the instrumented serving handler within 5%
// of the bare one (BenchmarkObsOverhead).
//
// Speedup mode is the inverse gate: it requires -fast to beat -slow by at
// least -min-speedup within one artifact. CI uses it to hold the PKT
// parallel engine at >= 2x over the sequential in-memory engine on the XL
// target:
//
//	benchjson -speedup BENCH_PR.json -fast 'BenchmarkRun/parallel/XL' \
//	    -slow 'BenchmarkRun/inmem/XL' -min-speedup 2.0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Entry is one parsed benchmark result line.
type Entry struct {
	// Name is the full benchmark name without the -GOMAXPROCS suffix.
	Name string `json:"name"`
	// Engine and Graph are set for BenchmarkRun/<engine>/<graph> entries.
	Engine string `json:"engine,omitempty"`
	Graph  string `json:"graph,omitempty"`
	// Iterations is the measured b.N.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the reported ns/op.
	NsPerOp float64 `json:"ns_per_op"`
}

// benchLine matches e.g.
//
//	BenchmarkRun/inmem/P2P-8   	      12	  95123456 ns/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([0-9.]+) ns/op`)

func main() {
	in := flag.String("in", "", "benchmark text output (default stdin)")
	out := flag.String("out", "BENCH_PR.json", "output JSON path")
	compare := flag.String("compare", "", "compare this JSON artifact against -baseline instead of converting")
	baseline := flag.String("baseline", "", "baseline JSON artifact for -compare")
	threshold := flag.Float64("threshold", 1.5, "report entries slower than baseline by this factor")
	maxRatio := flag.Float64("max-ratio", 0, "blocking gate: exit non-zero when a ratio exceeds this factor (0 = never fail)")
	overhead := flag.String("overhead", "", "gate -num against -den within this JSON artifact instead of converting")
	num := flag.String("num", "", "numerator benchmark name for -overhead")
	den := flag.String("den", "", "denominator benchmark name for -overhead")
	maxOverhead := flag.Float64("max-overhead", 1.05, "blocking gate for -overhead: maximum allowed num/den ratio")
	speedup := flag.String("speedup", "", "gate -fast against -slow within this JSON artifact instead of converting")
	fast := flag.String("fast", "", "benchmark expected to win, for -speedup")
	slow := flag.String("slow", "", "benchmark it must beat, for -speedup")
	minSpeedup := flag.Float64("min-speedup", 2.0, "blocking gate for -speedup: minimum required slow/fast ratio")
	flag.Parse()

	if *speedup != "" {
		if *fast == "" || *slow == "" {
			fatal(fmt.Errorf("-speedup requires -fast and -slow"))
		}
		if err := gateSpeedup(*speedup, *fast, *slow, *minSpeedup); err != nil {
			fatal(err)
		}
		return
	}
	if *overhead != "" {
		if *num == "" || *den == "" {
			fatal(fmt.Errorf("-overhead requires -num and -den"))
		}
		if err := gateOverhead(*overhead, *num, *den, *maxOverhead); err != nil {
			fatal(err)
		}
		return
	}
	if *compare != "" {
		if *baseline == "" {
			fatal(fmt.Errorf("-compare requires -baseline"))
		}
		if err := compareArtifacts(*compare, *baseline, *threshold, *maxRatio); err != nil {
			fatal(err)
		}
		return
	}

	r := os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}

	var entries []Entry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		e := Entry{Name: m[1], Iterations: iters, NsPerOp: ns}
		if parts := strings.Split(m[1], "/"); len(parts) == 3 && parts[0] == "BenchmarkRun" {
			e.Engine, e.Graph = parts[1], parts[2]
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	if len(entries) == 0 {
		fatal(fmt.Errorf("no benchmark lines found"))
	}

	doc := map[string]any{"benchmarks": entries}
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d benchmark entries to %s\n", len(entries), *out)
}

// artifact mirrors the written JSON document.
type artifact struct {
	Benchmarks []Entry `json:"benchmarks"`
}

func readArtifact(path string) (map[string]Entry, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc artifact
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	byName := make(map[string]Entry, len(doc.Benchmarks))
	for _, e := range doc.Benchmarks {
		byName[e.Name] = e
	}
	return byName, nil
}

// compareArtifacts prints a ratio table of pr against base and reports
// regressions beyond threshold; ratios beyond maxRatio (if set) make the
// comparison fail.
func compareArtifacts(prPath, basePath string, threshold, maxRatio float64) error {
	pr, err := readArtifact(prPath)
	if err != nil {
		return err
	}
	base, err := readArtifact(basePath)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(pr))
	for name := range pr {
		if _, ok := base[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("no common benchmarks between %s and %s", prPath, basePath)
	}
	regressions, failures := 0, 0
	fmt.Printf("%-52s %14s %14s %8s\n", "benchmark", "baseline ns/op", "PR ns/op", "ratio")
	for _, name := range names {
		b, p := base[name], pr[name]
		ratio := math.Inf(1)
		if b.NsPerOp > 0 {
			ratio = p.NsPerOp / b.NsPerOp
		}
		mark := ""
		if ratio > threshold {
			mark = "  <-- regression"
			regressions++
		}
		if maxRatio > 0 && ratio > maxRatio {
			mark = "  <-- FAIL"
			failures++
		}
		fmt.Printf("%-52s %14.0f %14.0f %7.2fx%s\n", name, b.NsPerOp, p.NsPerOp, ratio, mark)
	}
	for name := range pr {
		if _, ok := base[name]; !ok {
			fmt.Printf("%-52s (new: no baseline)\n", name)
		}
	}
	for name := range base {
		if _, ok := pr[name]; !ok {
			fmt.Printf("%-52s (dropped from PR run)\n", name)
		}
	}
	fmt.Printf("%d/%d benchmarks above the %.2fx reporting threshold\n", regressions, len(names), threshold)
	if failures > 0 {
		return fmt.Errorf("%d benchmarks regressed beyond the %.2fx failure threshold", failures, maxRatio)
	}
	return nil
}

// gateOverhead enforces num/den <= maxRatio within one artifact: the
// instrumentation-overhead gate. Both benchmarks must be present — a
// silently missing series would wave a broken gate through.
func gateOverhead(path, num, den string, maxRatio float64) error {
	entries, err := readArtifact(path)
	if err != nil {
		return err
	}
	n, ok := entries[num]
	if !ok {
		return fmt.Errorf("%s: benchmark %q not found", path, num)
	}
	d, ok := entries[den]
	if !ok {
		return fmt.Errorf("%s: benchmark %q not found", path, den)
	}
	if d.NsPerOp <= 0 {
		return fmt.Errorf("%s: benchmark %q has no timing", path, den)
	}
	ratio := n.NsPerOp / d.NsPerOp
	fmt.Printf("overhead %s / %s = %.0f / %.0f ns/op = %.3fx (limit %.3fx)\n",
		num, den, n.NsPerOp, d.NsPerOp, ratio, maxRatio)
	if ratio > maxRatio {
		return fmt.Errorf("overhead %.3fx exceeds the %.3fx limit", ratio, maxRatio)
	}
	return nil
}

// gateSpeedup enforces slow/fast >= minRatio within one artifact: the
// parallel-speedup gate. Like gateOverhead, a missing series is an error —
// a renamed benchmark must not silently disarm the gate.
func gateSpeedup(path, fast, slow string, minRatio float64) error {
	entries, err := readArtifact(path)
	if err != nil {
		return err
	}
	f, ok := entries[fast]
	if !ok {
		return fmt.Errorf("%s: benchmark %q not found", path, fast)
	}
	s, ok := entries[slow]
	if !ok {
		return fmt.Errorf("%s: benchmark %q not found", path, slow)
	}
	if f.NsPerOp <= 0 {
		return fmt.Errorf("%s: benchmark %q has no timing", path, fast)
	}
	ratio := s.NsPerOp / f.NsPerOp
	fmt.Printf("speedup %s / %s = %.0f / %.0f ns/op = %.2fx (need >= %.2fx)\n",
		slow, fast, s.NsPerOp, f.NsPerOp, ratio, minRatio)
	if ratio < minRatio {
		return fmt.Errorf("speedup %.2fx below the required %.2fx", ratio, minRatio)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
	os.Exit(1)
}
