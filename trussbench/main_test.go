package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// benchFile mirrors BENCHMARK.json.
type benchFile struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []map[string]any `json:"workloads"`
	EndToEnd   []map[string]any `json:"end_to_end"`
	PerLayer   []map[string]any `json:"per_layer"`
	raw        map[string]any
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

func loadBench(t *testing.T) *benchFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var b benchFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &b.raw); err != nil {
		t.Fatal(err)
	}
	return &b
}

// hasKeys reports whether m has exactly the given keys.
func hasKeys(m map[string]any, keys ...string) bool {
	got := make([]string, 0, len(m))
	for k := range m {
		got = append(got, k)
	}
	slices.Sort(got)
	slices.Sort(keys)
	return slices.Equal(got, keys)
}

// TestBenchmarkFile checks BENCHMARK.json's shape: its keys, the limits on
// names, units, counts and bounds, and setup_s holding the largest bound.
func TestBenchmarkFile(t *testing.T) {
	b := loadBench(t)
	if !hasKeys(b.raw, "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer") {
		t.Fatalf("top-level keys: %v", b.raw)
	}
	if len(b.Command) == 0 || len(b.Command) > 32 {
		t.Errorf("command has %d strings", len(b.Command))
	}
	for _, c := range b.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || slices.Contains(strings.Split(c, "/"), "..") {
			t.Errorf("command argument %q", c)
		}
	}
	if len(b.Paths) < 1 || len(b.Paths) > 16 {
		t.Errorf("%d paths", len(b.Paths))
	}
	for _, p := range b.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || slices.Contains(strings.Split(p, "/"), "..") {
			t.Errorf("path %q", p)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
	if len(b.Workloads) < 2 || len(b.Workloads) > 8 {
		t.Errorf("%d workloads", len(b.Workloads))
	}
	seen := map[string]bool{}
	name := func(m map[string]any) string {
		n, _ := m["name"].(string)
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		return n
	}
	for _, w := range b.Workloads {
		n := name(w)
		why, _ := w["why"].(string)
		if !hasKeys(w, "name", "why") || why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %s: %v", n, w)
		}
		if _, ok := workloads[n]; !ok {
			t.Errorf("workload %s has no implementation", n)
		}
	}
	metric := func(m map[string]any, keys ...string) {
		n := name(m)
		u, _ := m["unit"].(string)
		better, _ := m["better"].(string)
		if !hasKeys(m, keys...) || !unitRE.MatchString(u) || (better != "higher" && better != "lower") {
			t.Errorf("metric %s: %v", n, m)
		}
	}
	if len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics", len(b.EndToEnd))
	}
	maxBound, setupBound := 0.0, -1.0
	for _, m := range b.EndToEnd {
		metric(m, "name", "unit", "better", "bound")
		bound, _ := m["bound"].(float64)
		if bound <= 0 || bound > 0.25 {
			t.Errorf("metric %v: bound %v", m["name"], bound)
		}
		maxBound = max(maxBound, bound)
		if m["name"] == "setup_s" {
			setupBound = bound
			if m["unit"] != "s" || m["better"] != "lower" {
				t.Errorf("setup_s must be in s and better lower: %v", m)
			}
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	if len(b.PerLayer) < 1 || len(b.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(b.PerLayer))
	}
	for _, m := range b.PerLayer {
		metric(m, "name", "unit", "better")
	}
}

// TestOutputContract runs every workload at the tiny size, untraced and
// traced, and parses the last line of its output against BENCHMARK.json:
// exactly the four result keys, and every metric of the run's list once,
// with its unit and a finite value.
func TestOutputContract(t *testing.T) {
	b := loadBench(t)
	for _, w := range b.Workloads {
		for _, trace := range []string{"0", "1"} {
			wl := w["name"].(string)
			t.Run(wl+"/trace"+trace, func(t *testing.T) {
				var out, errOut bytes.Buffer
				args := []string{"-workload", wl, "-seed", "7", "-seconds", "1", "-trace", trace,
					"-size", "tiny", "-work", t.TempDir()}
				if code := run(args, &out, &errOut); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
				}
				lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
				defs := b.EndToEnd
				if trace == "1" {
					defs = b.PerLayer
				}
				checkResult(t, lines[len(lines)-1], defs)
			})
		}
	}
}

func checkResult(t *testing.T, line string, defs []map[string]any) {
	t.Helper()
	var top map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &top); err != nil {
		t.Fatalf("last line is not a JSON object: %v\n%s", err, line)
	}
	if len(top) != 4 || top["correct"] == nil || top["attempted"] == nil || top["failed"] == nil || top["metrics"] == nil {
		t.Fatalf("result keys: %s", line)
	}
	var correct bool
	var attempted, failed int64
	if json.Unmarshal(top["correct"], &correct) != nil || !correct {
		t.Errorf("correct = %s", top["correct"])
	}
	if json.Unmarshal(top["attempted"], &attempted) != nil || attempted < 1 {
		t.Errorf("attempted = %s", top["attempted"])
	}
	if json.Unmarshal(top["failed"], &failed) != nil || failed < 0 {
		t.Errorf("failed = %s", top["failed"])
	}
	// Count keys token by token: decoding into a map would hide a
	// metric printed twice.
	dec := json.NewDecoder(bytes.NewReader(top["metrics"]))
	count := map[string]int{}
	metrics := map[string]map[string]any{}
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("metrics is not an object: %s", top["metrics"])
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		k := tok.(string)
		var m map[string]any
		if err := dec.Decode(&m); err != nil {
			t.Fatalf("metric %s: %v", k, err)
		}
		count[k]++
		metrics[k] = m
	}
	for _, d := range defs {
		n := d["name"].(string)
		m := metrics[n]
		if count[n] != 1 {
			t.Errorf("metric %s appears %d times", n, count[n])
			continue
		}
		v, ok := m["value"].(float64)
		if !hasKeys(m, "value", "unit") || m["unit"] != d["unit"] || !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("metric %s = %v, want a finite value in %v", n, m, d["unit"])
		}
		delete(count, n)
	}
	for n := range count {
		t.Errorf("metric %s is not in BENCHMARK.json", n)
	}
}
