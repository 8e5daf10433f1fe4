package truss_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	truss "repro"
	"repro/internal/embu"
	"repro/internal/gen"
)

var allEngines = []truss.Engine{
	truss.EngineInMem,
	truss.EngineBaseline,
	truss.EngineParallel,
	truss.EngineBottomUp,
	truss.EngineTopDown,
	truss.EngineMapReduce,
}

// parityFixtures are graphs with non-trivial truss structure (several
// levels, planted dense cores) shared by the parity and cancellation
// tests.
func parityFixtures() map[string]*truss.Graph {
	return map[string]*truss.Graph{
		"paper":     gen.PaperExample(),
		"community": gen.Community(6, 10, 0.7, 1.5, 3),
		"cliques":   gen.WithPlantedCliques(gen.RMAT(8, 4, 0.57, 0.19, 0.19, 4), []int{10}, 4),
	}
}

// TestRunEngineParity runs every engine through truss.Run on the same
// fixtures and requires identical phi histograms, kmax, and classified
// edge counts — the acceptance criterion of the unified API: engine
// choice is a tuning knob, not a different answer.
func TestRunEngineParity(t *testing.T) {
	ctx := context.Background()
	for name, g := range parityFixtures() {
		t.Run(name, func(t *testing.T) {
			want, err := truss.Run(ctx, truss.FromGraph(g))
			if err != nil {
				t.Fatal(err)
			}
			defer want.Close()
			wantHist := want.Histogram()

			for _, eng := range allEngines {
				d, err := truss.Run(ctx, truss.FromGraph(g),
					truss.WithEngine(eng),
					truss.WithBudget(int64(g.NumEdges())), // force partitioning
					truss.WithSeed(7),
					truss.WithTempDir(t.TempDir()))
				if err != nil {
					t.Fatalf("%v: %v", eng, err)
				}
				if d.Engine() != eng {
					t.Errorf("%v: Engine() = %v", eng, d.Engine())
				}
				if d.KMax() != want.KMax() {
					t.Errorf("%v: kmax = %d, want %d", eng, d.KMax(), want.KMax())
				}
				if d.NumEdges() != int64(g.NumEdges()) {
					t.Errorf("%v: classified %d of %d edges", eng, d.NumEdges(), g.NumEdges())
				}
				got := d.Histogram()
				if len(got) != len(wantHist) {
					t.Fatalf("%v: histogram length %d, want %d", eng, len(got), len(wantHist))
				}
				for k := range got {
					if got[k] != wantHist[k] {
						t.Errorf("%v: |Phi_%d| = %d, want %d", eng, k, got[k], wantHist[k])
					}
				}
				count := int64(0)
				if err := d.Edges(func(u, v uint32, phi int32) error {
					if phi < 2 {
						return fmt.Errorf("edge (%d,%d): phi %d < 2", u, v, phi)
					}
					count++
					return nil
				}); err != nil {
					t.Errorf("%v: Edges: %v", eng, err)
				}
				if count != d.NumEdges() {
					t.Errorf("%v: Edges streamed %d records, NumEdges says %d", eng, count, d.NumEdges())
				}
				if err := d.Close(); err != nil {
					t.Errorf("%v: Close: %v", eng, err)
				}
			}
		})
	}
}

// TestRunPreCancelled: a context cancelled before Run starts must stop
// every engine before it does any work.
func TestRunPreCancelled(t *testing.T) {
	g := gen.PaperExample()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, eng := range allEngines {
		_, err := truss.Run(ctx, truss.FromGraph(g),
			truss.WithEngine(eng), truss.WithTempDir(t.TempDir()))
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%v: err = %v, want context.Canceled", eng, err)
		}
	}
}

// TestRunMidCancel cancels the context from inside the progress observer
// at the first peeling level / candidate round and requires every engine
// to abort promptly with ctx.Err() — in-memory and external alike.
func TestRunMidCancel(t *testing.T) {
	// Planted cliques give every engine multiple levels/rounds to sweep,
	// so there is always work left after the first level event.
	g := gen.WithPlantedCliques(gen.RMAT(9, 4, 0.57, 0.19, 0.19, 6), []int{14, 10}, 6)
	for _, eng := range allEngines {
		t.Run(eng.String(), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			tmp := t.TempDir()
			levels := 0
			d, err := truss.Run(ctx, truss.FromGraph(g),
				truss.WithEngine(eng),
				truss.WithBudget(int64(g.NumEdges())/2),
				truss.WithTempDir(tmp),
				truss.WithProgress(func(p truss.Progress) {
					if p.Stage == truss.StageLevel {
						levels++
						cancel()
					}
				}))
			if !errors.Is(err, context.Canceled) {
				if d != nil {
					d.Close()
				}
				t.Fatalf("err = %v (levels seen: %d), want context.Canceled", err, levels)
			}
			if levels == 0 {
				t.Fatal("no StageLevel event was delivered before the run finished")
			}
			// An aborted run must not orphan spools or sort runs in the
			// temp directory.
			left, err := os.ReadDir(tmp)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range left {
				t.Errorf("cancelled %v run leaked temp file %s", eng, f.Name())
			}
		})
	}
}

// TestRunFromFileStreaming exercises the out-of-core source path: a SNAP
// text file full of duplicates, reversed pairs, self-loops, and comments
// must stream into the external engines (canonicalized and deduplicated
// out of core) and produce the same decomposition as loading the file into
// memory.
func TestRunFromFileStreaming(t *testing.T) {
	ctx := context.Background()
	g := gen.Community(6, 10, 0.7, 1.5, 3)
	dir := t.TempDir()

	// Write a messy text variant: every edge twice (once reversed), plus
	// noise lines and a self-loop.
	path := filepath.Join(dir, "messy.txt")
	var sb strings.Builder
	sb.WriteString("# messy SNAP file\n\n% another comment style\n")
	for _, e := range g.Edges() {
		fmt.Fprintf(&sb, "%d %d\n", e.U, e.V)
		fmt.Fprintf(&sb, "%d\t%d\n", e.V, e.U) // duplicate, reversed
	}
	sb.WriteString("3 3\n") // self-loop, must be dropped
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	want := decompose(t, g)
	for _, eng := range []truss.Engine{truss.EngineBottomUp, truss.EngineTopDown} {
		d, err := truss.Run(ctx, truss.FromFile(path),
			truss.WithEngine(eng),
			truss.WithBudget(int64(g.NumEdges())),
			truss.WithTempDir(dir))
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		if d.KMax() != want.KMax {
			t.Errorf("%v: kmax = %d, want %d", eng, d.KMax(), want.KMax)
		}
		if d.NumEdges() != int64(g.NumEdges()) {
			t.Errorf("%v: classified %d edges, want %d (dedup failed?)", eng, d.NumEdges(), g.NumEdges())
		}
		if err := d.Edges(func(u, v uint32, phi int32) error {
			id, ok := g.EdgeID(u, v)
			if !ok {
				return fmt.Errorf("unknown edge (%d,%d)", u, v)
			}
			if want.Phi[id] != phi {
				return fmt.Errorf("edge (%d,%d): phi %d, want %d", u, v, phi, want.Phi[id])
			}
			return nil
		}); err != nil {
			t.Errorf("%v: %v", eng, err)
		}
		d.Close()
	}

	// Binary files stream too (with duplicate records this time).
	bpath := filepath.Join(dir, "dup.bin")
	if err := truss.SaveGraph(bpath, g); err != nil {
		t.Fatal(err)
	}
	d, err := truss.Run(ctx, truss.FromFile(bpath), truss.WithEngine(truss.EngineBottomUp),
		truss.WithTempDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.KMax() != want.KMax {
		t.Errorf("bin: kmax = %d, want %d", d.KMax(), want.KMax)
	}
}

// TestRunFromReader decomposes SNAP text from a plain io.Reader, and
// verifies the single-use contract.
func TestRunFromReader(t *testing.T) {
	ctx := context.Background()
	g := gen.PaperExample()
	var sb strings.Builder
	for _, e := range g.Edges() {
		fmt.Fprintf(&sb, "%d %d\n", e.U, e.V)
	}

	src := truss.FromReader(strings.NewReader(sb.String()))
	d, err := truss.Run(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.KMax() != 5 {
		t.Fatalf("kmax = %d, want 5", d.KMax())
	}
	if _, err := truss.Run(ctx, src); err == nil {
		t.Fatal("second Run over the same reader source should fail")
	}

	// External engines stream the reader without materializing a graph.
	src2 := truss.FromReader(strings.NewReader(sb.String()))
	d2, err := truss.Run(ctx, src2, truss.WithEngine(truss.EngineBottomUp),
		truss.WithTempDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.KMax() != 5 {
		t.Fatalf("external kmax = %d, want 5", d2.KMax())
	}
}

// TestRunTopT: a top-t run reports only the top classes in its histogram
// and edge stream.
func TestRunTopT(t *testing.T) {
	g := gen.PaperExample()
	d, err := truss.Run(context.Background(), truss.FromGraph(g),
		truss.WithEngine(truss.EngineTopDown),
		truss.WithTopT(1),
		truss.WithTempDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.KMax() != 5 {
		t.Fatalf("kmax = %d, want 5", d.KMax())
	}
	if h := d.Histogram(); h[5] != 10 {
		t.Fatalf("|Phi_5| = %d, want 10", h[5])
	}
}

// TestRunProgressStages checks the observer sees the stage sequence
// load -> decompose -> level* -> done.
func TestRunProgressStages(t *testing.T) {
	var stages []string
	d, err := truss.Run(context.Background(), truss.FromGraph(gen.PaperExample()),
		truss.WithProgress(func(p truss.Progress) { stages = append(stages, p.Stage) }))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if len(stages) < 3 || stages[0] != truss.StageLoad || stages[len(stages)-1] != truss.StageDone {
		t.Fatalf("stage sequence = %v", stages)
	}
	sawLevel := false
	for _, s := range stages {
		if s == truss.StageLevel {
			sawLevel = true
		}
	}
	if !sawLevel {
		t.Fatalf("no level events in %v", stages)
	}
}

// TestRunDefaultPartitionIsSequential pins the external engines' default
// partition strategy: a bottom-up run without WithPartition partitions as
// PartitionSequential does, not as PartitionRandomized.
func TestRunDefaultPartitionIsSequential(t *testing.T) {
	g := gen.WithPlantedCliques(gen.RMAT(10, 6, 0.57, 0.19, 0.19, 5), []int{20}, 5)
	trace := func(opts ...truss.Option) embu.Trace {
		opts = append(opts, truss.WithEngine(truss.EngineBottomUp),
			truss.WithBudget(int64(g.NumEdges())/2), truss.WithSeed(5), truss.WithTempDir(t.TempDir()))
		d, err := truss.Run(context.Background(), truss.FromGraph(g), opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		res, _ := truss.AsBottomUp(d)
		return res.Trace
	}
	def := trace()
	if seq := trace(truss.WithPartition(truss.PartitionSequential)); def != seq {
		t.Fatalf("default trace %+v, sequential %+v", def, seq)
	}
	if rnd := trace(truss.WithPartition(truss.PartitionRandomized)); def == rnd {
		t.Fatalf("default trace %+v equals the randomized one", def)
	}
}

// TestParseEngine covers the CLI name mapping.
func TestParseEngine(t *testing.T) {
	for name, want := range map[string]truss.Engine{
		"inmem": truss.EngineInMem, "baseline": truss.EngineBaseline,
		"parallel": truss.EngineParallel, "bottomup": truss.EngineBottomUp,
		"topdown": truss.EngineTopDown, "mapreduce": truss.EngineMapReduce,
		"mr": truss.EngineMapReduce,
	} {
		got, err := truss.ParseEngine(name)
		if err != nil || got != want {
			t.Errorf("ParseEngine(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := truss.ParseEngine("nope"); err == nil {
		t.Error("ParseEngine(nope) should fail")
	}
}
