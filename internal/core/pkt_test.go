package core

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestDecomposePKTPaperExample(t *testing.T) {
	g := graph.FromEdges(fig2Edges())
	for _, workers := range []int{0, 2, 3, 4, 8} {
		checkAgainstFig2(t, "DecomposeParallel", DecomposeParallel(g, workers))
	}
}

func TestDecomposePKTMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(1207))
	for trial := 0; trial < 30; trial++ {
		n := 10 + r.Intn(90)
		m := 2*n + r.Intn(6*n)
		g := randomGraph(r, n, m)
		want := Decompose(g)
		for _, workers := range []int{2, 4, 8} {
			got := DecomposeParallel(g, workers)
			if err := EqualResults(want, got); err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, workers, err)
			}
		}
	}
}

// TestDecomposePKTDeepCascades drives multi-sub-round levels: overlapping
// cliques whose removal cascades across several barriers, with enough
// edges that the parallel dispatch path (frontiers above the serial
// cutoff) engages.
func TestDecomposePKTDeepCascades(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var edges []graph.Edge
	const n = 600
	for i := 0; i < 12000; i++ {
		edges = append(edges, graph.Edge{U: uint32(r.Intn(n)), V: uint32(r.Intn(n))})
	}
	for c := 0; c < 3; c++ {
		base := uint32(c * 40)
		for i := uint32(0); i < 20; i++ {
			for j := i + 1; j < 20; j++ {
				edges = append(edges, graph.Edge{U: base + i, V: base + j})
			}
		}
	}
	g := graph.FromEdges(edges)
	want := Decompose(g)
	got := DecomposeParallel(g, 8)
	if err := EqualResults(want, got); err != nil {
		t.Fatal(err)
	}
	if err := Verify(got); err != nil {
		t.Fatal(err)
	}
	// The machinery must actually have engaged: multiple levels, more
	// rounds than levels (cascades), every edge through a frontier.
	s := got.PKT
	if s == nil {
		t.Fatal("PKT stats missing on a multi-worker run")
	}
	if s.Workers != 8 || s.Levels < 3 || s.Rounds <= s.Levels {
		t.Fatalf("implausible PKT shape: %+v", *s)
	}
	if s.FrontierEdges != g.NumEdges() {
		t.Fatalf("frontier edges %d != m %d", s.FrontierEdges, g.NumEdges())
	}
	if s.PeakFrontier == 0 || s.MergeDispatch+s.ProbeDispatch != int64(g.NumEdges()) {
		t.Fatalf("kernel dispatches %d+%d don't cover m=%d: %+v",
			s.MergeDispatch, s.ProbeDispatch, g.NumEdges(), *s)
	}
}

// TestDecomposePKTSkewedHub forces the hash-probe dispatch: a hub adjacent
// to everything plus a sparse periphery gives edges with extreme endpoint
// degree skew.
func TestDecomposePKTSkewedHub(t *testing.T) {
	var edges []graph.Edge
	const n = 400
	for v := uint32(1); v < n; v++ {
		edges = append(edges, graph.Edge{U: 0, V: v}) // hub
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 2*n; i++ {
		u, v := uint32(1+r.Intn(n-1)), uint32(1+r.Intn(n-1))
		edges = append(edges, graph.Edge{U: u, V: v})
	}
	g := graph.FromEdges(edges)
	want := Decompose(g)
	got := DecomposeParallel(g, 4)
	if err := EqualResults(want, got); err != nil {
		t.Fatal(err)
	}
	if got.PKT.ProbeDispatch == 0 {
		t.Fatalf("hub graph never dispatched the probe kernel: %+v", *got.PKT)
	}
}

func TestDecomposePKTTrivial(t *testing.T) {
	empty := graph.NewBuilder(0).Build()
	if r := DecomposeParallel(empty, 4); r.KMax != 0 {
		t.Fatal("empty graph")
	}
	// Triangle-free: everything peels at k=2 in one level.
	path := graph.FromEdges([]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	if r := DecomposeParallel(path, 4); r.KMax != 2 {
		t.Fatalf("path kmax = %d", r.KMax)
	}
	tri := graph.FromEdges([]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}})
	if r := DecomposeParallel(tri, 4); r.KMax != 3 {
		t.Fatalf("triangle kmax = %d", r.KMax)
	}
	// A single k-clique is one k-class: exercises the empty-level jump
	// from 2 straight to k.
	var clique []graph.Edge
	for i := uint32(0); i < 9; i++ {
		for j := i + 1; j < 9; j++ {
			clique = append(clique, graph.Edge{U: i, V: j})
		}
	}
	if r := DecomposeParallel(graph.FromEdges(clique), 4); r.KMax != 9 {
		t.Fatalf("K9 kmax = %d", r.KMax)
	}
}

func TestDecomposePKTCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := graph.FromEdges(fig2Edges())
	if _, err := DecomposeParallelCtx(ctx, g, 4, Hooks{}); err == nil {
		t.Fatal("pre-cancelled context should abort the run")
	}
}

// TestPKTCancelMidRun cancels from inside the peel, through OnRound, once
// for a full run and once for a restricted run, and requires the run to
// stop at its next poll: context.Canceled, a nil result, and no hook call
// after the cancel. Each run is cancelled twice: in a round that its level
// follows with another round, which only the per-round poll stops before
// that round, and in the last round of a level that is not the last, which
// only the per-level poll stops before the next level.
func TestPKTCancelMidRun(t *testing.T) {
	g := gen.WithPlantedCliques(gen.RMAT(9, 8, 0.57, 0.19, 0.19, 5), []int{24, 16}, 5)
	exact := Decompose(g).Phi
	var region []int32
	for e := int32(0); e < int32(g.NumEdges()); e += 2 {
		region = append(region, e)
	}
	runs := []struct {
		name string
		run  func(ctx context.Context, h Hooks) (bool, error)
	}{
		{"full", func(ctx context.Context, h Hooks) (bool, error) {
			r, err := DecomposeParallelCtx(ctx, g, 4, h)
			return r != nil, err
		}},
		{"restricted", func(ctx context.Context, h Hooks) (bool, error) {
			boundary, _, err := PeelRegion(ctx, g, slices.Clone(exact), region, 4, h)
			return boundary != nil, err
		}},
	}
	for _, tc := range runs {
		t.Run(tc.name, func(t *testing.T) {
			var levels []int32 // level of each round of an uncancelled run
			if _, err := tc.run(context.Background(), Hooks{OnRound: func(k int32, _ int) { levels = append(levels, k) }}); err != nil {
				t.Fatal(err)
			}
			within, across := -1, -1
			for i := 1; i+1 < len(levels); i++ {
				if within < 0 && levels[i+1] == levels[i] {
					within = i
				}
				if across < 0 && levels[i+1] != levels[i] {
					across = i
				}
			}
			if within < 0 || across < 0 {
				t.Fatalf("rounds by level %v have no cancellation point of each kind", levels)
			}
			for _, at := range []int{within, across} {
				ctx, cancel := context.WithCancel(context.Background())
				round, late := 0, 0
				h := Hooks{
					OnLevel: func(int32) {
						if ctx.Err() != nil {
							late++
						}
					},
					OnRound: func(int32, int) {
						if ctx.Err() != nil {
							late++
						}
						if round == at {
							cancel()
						}
						round++
					},
				}
				nonNil, err := tc.run(ctx, h)
				cancel()
				if !errors.Is(err, context.Canceled) || nonNil {
					t.Errorf("cancelled in round %d: err %v, non-nil result %v", at, err, nonNil)
				}
				if late > 0 {
					t.Errorf("cancelled in round %d: %d hook calls after the cancel", at, late)
				}
			}
		})
	}
}

func TestDecomposePKTHooks(t *testing.T) {
	g := graph.FromEdges(fig2Edges())
	var levels []int32
	rounds := 0
	frontierTotal := 0
	h := Hooks{
		OnLevel: func(k int32) { levels = append(levels, k) },
		OnRound: func(k int32, frontier int) {
			rounds++
			frontierTotal += frontier
			if frontier == 0 {
				t.Fatal("empty frontier announced to OnRound")
			}
		},
	}
	r, err := DecomposeParallelCtx(context.Background(), g, 4, h)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 2 has classes 2..5: four populated levels, ascending.
	if len(levels) != 4 {
		t.Fatalf("levels seen: %v", levels)
	}
	for i := 1; i < len(levels); i++ {
		if levels[i] <= levels[i-1] {
			t.Fatalf("levels not ascending: %v", levels)
		}
	}
	if rounds != r.PKT.Rounds || frontierTotal != g.NumEdges() {
		t.Fatalf("hook rounds %d (stats %d), frontier total %d (m %d)",
			rounds, r.PKT.Rounds, frontierTotal, g.NumEdges())
	}
}

// TestPKTConcurrentPeelStress is the dedicated race-job stress test: many
// workers against small graphs, repeatedly, plus concurrent independent
// runs over one shared graph — the shapes that flush out frontier/atomics
// races under -race.
func TestPKTConcurrentPeelStress(t *testing.T) {
	iters := 30
	if testing.Short() {
		iters = 8
	}
	r := rand.New(rand.NewSource(555))
	for trial := 0; trial < iters; trial++ {
		n := 20 + r.Intn(60)
		m := 3*n + r.Intn(5*n)
		g := randomGraph(r, n, m)
		want := Decompose(g)
		for _, workers := range []int{4, 16} {
			got := DecomposeParallel(g, workers)
			if err := EqualResults(want, got); err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, workers, err)
			}
		}
	}

	// Concurrent runs sharing one graph: the Graph and the kernel inputs
	// are read-only; each run must stay independent.
	g := graph.FromEdges(fig2Edges())
	want := Decompose(g)
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if err := EqualResults(want, DecomposeParallel(g, 4)); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}
