package truss_test

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	truss "repro"
	"repro/internal/experiments"
	"repro/internal/gen"
)

// TestIntegrationAllAlgorithmsAgree runs the complete pipeline every user
// would follow — generate, persist, decompose with all four algorithms plus
// the MapReduce baseline — and requires identical truss numbers everywhere.
func TestIntegrationAllAlgorithmsAgree(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *truss.Graph
	}{
		{"community", gen.Community(8, 12, 0.65, 1.5, 5)},
		{"rmat-cliques", gen.WithPlantedCliques(gen.RMAT(9, 4, 0.57, 0.19, 0.19, 6), []int{12}, 6)},
		{"collab", gen.Collaboration(300, 160, 10, 7)},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "g.bin")
			if err := truss.SaveGraph(path, tc.g); err != nil {
				t.Fatal(err)
			}
			g, err := truss.LoadGraph(path)
			if err != nil {
				t.Fatal(err)
			}

			want := decompose(t, g)
			if err := truss.Verify(want); err != nil {
				t.Fatal(err)
			}
			phiOf := func(u, v uint32) int32 {
				id, ok := g.EdgeID(u, v)
				if !ok {
					t.Fatalf("edge (%d,%d) missing", u, v)
				}
				return want.Phi[id]
			}

			// Baseline in-memory.
			base := decompose(t, g, truss.WithEngine(truss.EngineBaseline))
			for id := range base.Phi {
				if base.Phi[id] != want.Phi[id] {
					t.Fatalf("baseline disagrees at edge %d", id)
				}
			}

			// Bottom-up external, from the file, small budget.
			external := []truss.Option{
				truss.WithBudget(int64(g.NumEdges())), truss.WithTempDir(dir), truss.WithSeed(3),
			}
			bu, _ := truss.AsBottomUp(run(t, truss.FromFile(path),
				append(external, truss.WithEngine(truss.EngineBottomUp))...))
			buPhi, err := bu.PhiMap()
			if err != nil {
				t.Fatal(err)
			}
			if len(buPhi) != g.NumEdges() {
				t.Fatalf("bottom-up classified %d of %d edges", len(buPhi), g.NumEdges())
			}
			for key, p := range buPhi {
				e := truss.Edge{U: uint32(key >> 32), V: uint32(key)}
				if phiOf(e.U, e.V) != p {
					t.Fatalf("bottom-up: edge %v phi=%d want %d", e, p, phiOf(e.U, e.V))
				}
			}

			// Top-down external (all classes), from the file.
			td, _ := truss.AsTopDown(run(t, truss.FromFile(path),
				append(external, truss.WithEngine(truss.EngineTopDown), truss.WithTopT(0))...))
			tdPhi, err := td.PhiMap()
			if err != nil {
				t.Fatal(err)
			}
			if len(tdPhi) != g.NumEdges() {
				t.Fatalf("top-down classified %d of %d edges", len(tdPhi), g.NumEdges())
			}
			for key, p := range tdPhi {
				e := truss.Edge{U: uint32(key >> 32), V: uint32(key)}
				if phiOf(e.U, e.V) != p {
					t.Fatalf("top-down: edge %v phi=%d want %d", e, p, phiOf(e.U, e.V))
				}
			}

			// MapReduce baseline.
			mr, _ := truss.AsMapReduce(run(t, truss.FromGraph(g), truss.WithEngine(truss.EngineMapReduce)))
			if mr.KMax != want.KMax {
				t.Fatalf("TD-MR kmax %d want %d", mr.KMax, want.KMax)
			}
			for key, p := range mr.Phi {
				e := truss.Edge{U: uint32(key >> 32), V: uint32(key)}
				if phiOf(e.U, e.V) != p {
					t.Fatalf("TD-MR: edge %v phi=%d want %d", e, p, phiOf(e.U, e.V))
				}
			}
		})
	}
}

// TestExperimentFigures smoke-tests the experiment harness' figure
// reproductions (cheap; the tables run in cmd/experiments).
func TestExperimentFigures(t *testing.T) {
	var buf bytes.Buffer
	opts := experiments.Options{Quick: true, TempDir: t.TempDir(), Out: &buf}
	if err := experiments.Figure1(opts); err != nil {
		t.Fatal(err)
	}
	if err := experiments.Figure2(opts); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Figure 1", "4-core empty: true", "5-truss empty: true",
		"Figure 2", "| Phi_5 | 10 | 10 |", "kmax = 5 (paper: 5)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestExperimentTable2Quick runs the Table 2 harness on the quick analogs
// (skipped in -short mode; it decomposes all nine datasets).
func TestExperimentTable2Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick datasets still take seconds; skipped with -short")
	}
	var buf bytes.Buffer
	opts := experiments.Options{Quick: true, TempDir: t.TempDir(), Out: &buf}
	if err := experiments.Table2(opts); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, ds := range []string{"P2P", "HEP", "Amazon", "Wiki", "Skitter", "Blog", "LJ", "BTC", "Web"} {
		if !strings.Contains(out, "| "+ds+" |") {
			t.Fatalf("Table 2 missing dataset %s:\n%s", ds, out)
		}
	}
}
