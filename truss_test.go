package truss_test

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	truss "repro"
	"repro/internal/gen"
)

// paperExample rebuilds the Figure 2 graph through the public API.
func paperExample() *truss.Graph {
	return gen.PaperExample()
}

// run is truss.Run for tests: it fails t on error and closes the
// decomposition when t ends.
func run(t testing.TB, src truss.Source, opts ...truss.Option) truss.Decomposition {
	t.Helper()
	d, err := truss.Run(context.Background(), src, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// decompose runs an in-memory engine over g and unwraps its Result.
func decompose(t testing.TB, g *truss.Graph, opts ...truss.Option) *truss.Result {
	t.Helper()
	res, _ := truss.AsInMemory(run(t, truss.FromGraph(g), opts...))
	return res
}

func TestFacadeInMemory(t *testing.T) {
	g := paperExample()
	r := decompose(t, g)
	if r.KMax != 5 {
		t.Fatalf("kmax = %d", r.KMax)
	}
	if err := truss.Verify(r); err != nil {
		t.Fatal(err)
	}
	b := decompose(t, g, truss.WithEngine(truss.EngineBaseline))
	if b.KMax != 5 {
		t.Fatalf("baseline kmax = %d", b.KMax)
	}
}

func TestFacadeBuilderAndFiles(t *testing.T) {
	b := truss.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	g := b.Build()
	dir := t.TempDir()
	path := filepath.Join(dir, "tri.txt")
	if err := truss.SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	back, err := truss.LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != 3 {
		t.Fatalf("loaded %d edges", back.NumEdges())
	}
	r := decompose(t, back)
	if r.KMax != 3 {
		t.Fatalf("triangle kmax = %d", r.KMax)
	}
}

func TestFacadeExternal(t *testing.T) {
	g := paperExample()
	var st truss.IOStats
	res, _ := truss.AsBottomUp(run(t, truss.FromGraph(g), truss.WithEngine(truss.EngineBottomUp),
		truss.WithBudget(64), truss.WithTempDir(t.TempDir()), truss.WithStats(&st)))
	if res.KMax != 5 {
		t.Fatalf("bottom-up kmax = %d", res.KMax)
	}
	if st.BytesRead() == 0 {
		t.Fatal("no I/O recorded")
	}

	td, _ := truss.AsTopDown(run(t, truss.FromGraph(g), truss.WithEngine(truss.EngineTopDown),
		truss.WithTopT(2), truss.WithTempDir(t.TempDir())))
	if td.KMax != 5 || td.ClassSizes[5] != 10 || td.ClassSizes[4] != 6 {
		t.Fatalf("top-down: kmax=%d sizes=%v", td.KMax, td.ClassSizes)
	}
}

func TestFacadeExternalFromFile(t *testing.T) {
	g := paperExample()
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	if err := truss.SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	res, _ := truss.AsBottomUp(run(t, truss.FromFile(path), truss.WithEngine(truss.EngineBottomUp),
		truss.WithTempDir(dir)))
	if res.KMax != 5 {
		t.Fatalf("kmax = %d", res.KMax)
	}
	td, _ := truss.AsTopDown(run(t, truss.FromFile(path), truss.WithEngine(truss.EngineTopDown),
		truss.WithTopT(1), truss.WithTempDir(dir)))
	if td.ClassSizes[5] != 10 {
		t.Fatalf("top-1 sizes = %v", td.ClassSizes)
	}
}

func TestFacadeMapReduce(t *testing.T) {
	res, _ := truss.AsMapReduce(run(t, truss.FromGraph(paperExample()), truss.WithEngine(truss.EngineMapReduce)))
	if res.KMax != 5 {
		t.Fatalf("TD-MR kmax = %d", res.KMax)
	}
	if res.Counters.Rounds == 0 {
		t.Fatal("no MR rounds recorded")
	}
}

func TestFacadeCommunitiesAndDOT(t *testing.T) {
	g := paperExample()
	r := decompose(t, g)
	comms := truss.Communities(r, 5)
	if len(comms) != 1 || len(comms[0].Edges) != 10 {
		t.Fatalf("communities at k=5: %+v", comms)
	}
	var buf bytes.Buffer
	if err := truss.WriteDOT(&buf, r, "fig2"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("graph \"fig2\"")) {
		t.Fatal("DOT output malformed")
	}
}

func TestFacadeAnalyses(t *testing.T) {
	g := paperExample()
	co := truss.CoreDecompose(g)
	if co.CMax < 3 {
		t.Fatalf("cmax = %d", co.CMax)
	}
	if cc := truss.ClusteringCoefficient(g); cc <= 0 || cc > 1 {
		t.Fatalf("cc = %f", cc)
	}
	st := truss.Stats(g)
	if st.V != 12 || st.E != 26 || st.KMax != 5 {
		t.Fatalf("stats = %+v", st)
	}
	ts, cs := truss.MaxTrussVsMaxCore(g)
	if ts.K != 5 || ts.E != 10 {
		t.Fatalf("max truss stats = %+v", ts)
	}
	if cs.E == 0 {
		t.Fatalf("max core stats = %+v", cs)
	}
}
