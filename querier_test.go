// The Querier-parity suite: one query script runs against every
// implementation of the unified query surface — a local index, an index
// streamed out of an external-memory decomposition, the slow-path
// Decomposition adapter, and an HTTP client pointed at a live test
// server — and all must agree edge-for-edge with the reference.
package truss_test

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	truss "repro"
	"repro/client"
	"repro/internal/dynamic"
	"repro/internal/gen"
)

// parityFixture builds one graph and every Querier implementation over
// it, plus the reference index querier.
type parityFixture struct {
	g         *truss.Graph
	reference truss.Querier
	queriers  map[string]truss.Querier
	kmax      int32
}

func newParityFixture(t *testing.T) *parityFixture {
	t.Helper()
	ctx := context.Background()
	// Communities plus a planted clique: several k-levels, multiple
	// communities per level, and a distinct innermost class.
	g := gen.WithPlantedCliques(gen.Community(4, 12, 0.8, 1.5, 3), []int{8}, 5)

	d, err := truss.Run(ctx, truss.FromGraph(g))
	if err != nil {
		t.Fatal(err)
	}
	res, _ := truss.AsInMemory(d)
	reference := truss.QueryIndex(truss.BuildIndex(res))

	budget := int64(g.NumEdges()) * 6 / 5
	if budget < 1<<12 {
		budget = 1 << 12
	}
	dbu, err := truss.Run(ctx, truss.FromGraph(g),
		truss.WithEngine(truss.EngineBottomUp),
		truss.WithBudget(budget), truss.WithSeed(1), truss.WithTempDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dbu.Close() })
	streamed, err := truss.BuildIndexFrom(ctx, dbu)
	if err != nil {
		t.Fatal(err)
	}

	srv := truss.NewServer(truss.ServerOptions{Workers: 2, Logf: t.Logf})
	srv.Build("parity", g, "test")
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL, client.WithRetryBackoff(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}

	// Fifth implementation: the reference index round-tripped through the
	// on-disk format and served off a memory mapping.
	tixPath := filepath.Join(t.TempDir(), "parity.tix")
	if err := truss.WriteIndexFile(tixPath, truss.BuildIndex(res), "parity"); err != nil {
		t.Fatal(err)
	}
	tix, err := truss.OpenIndexFile(tixPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tix.Close() })

	return &parityFixture{
		g:         g,
		reference: reference,
		kmax:      res.KMax,
		queriers: map[string]truss.Querier{
			"streamed-index":   truss.QueryIndex(streamed),
			"adapter-inmem":    truss.QueryDecomposition(d),
			"adapter-bottomup": truss.QueryDecomposition(dbu),
			"http-client":      c.Graph("parity"),
			"mmap-indexfile":   truss.QueryIndex(tix.Index()),
		},
	}
}

// edgePhi is a normalized (edge, truss) pair for order-insensitive
// stream comparison.
type edgePhi struct {
	e   truss.Edge
	phi int32
}

// collectEdges drains a KTrussEdges iterator into a canonical sorted
// slice.
func collectEdges(t *testing.T, q truss.Querier, k int32) []edgePhi {
	t.Helper()
	seq, errf := q.KTrussEdges(context.Background(), k)
	var out []edgePhi
	for e, phi := range seq {
		out = append(out, edgePhi{e, phi})
	}
	if err := errf(); err != nil {
		t.Fatalf("KTrussEdges(%d): %v", k, err)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].e.U != out[j].e.U {
			return out[i].e.U < out[j].e.U
		}
		return out[i].e.V < out[j].e.V
	})
	return out
}

func TestQuerierParity(t *testing.T) {
	fx := newParityFixture(t)
	ctx := context.Background()

	// The lookup script: every edge of the graph plus misses (absent
	// pair, out-of-range vertex, self-loop).
	pairs := append([]truss.Edge(nil), fx.g.Edges()...)
	pairs = append(pairs,
		truss.Edge{U: 0, V: uint32(fx.g.NumVertices() + 7)},
		truss.Edge{U: 3, V: 3},
		truss.Edge{U: uint32(fx.g.NumVertices()), V: uint32(fx.g.NumVertices() + 1)})

	wantAnswers, err := fx.reference.TrussNumbers(ctx, pairs)
	if err != nil {
		t.Fatal(err)
	}
	wantHist, err := fx.reference.Histogram(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantTopAll, err := fx.reference.TopClasses(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantTop2, err := fx.reference.TopClasses(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fx.kmax < 4 {
		t.Fatalf("fixture too shallow: kmax=%d", fx.kmax)
	}

	for name, q := range fx.queriers {
		t.Run(name, func(t *testing.T) {
			// Point lookups, one by one.
			for _, p := range pairs[:40] { // a sample; the batch below covers all
				k, found, err := q.TrussNumber(ctx, p.U, p.V)
				if err != nil {
					t.Fatalf("TrussNumber%v: %v", p, err)
				}
				wk, wfound, _ := fx.reference.TrussNumber(ctx, p.U, p.V)
				if k != wk || found != wfound {
					t.Fatalf("TrussNumber%v = (%d,%v) want (%d,%v)", p, k, found, wk, wfound)
				}
			}

			// The whole script as one batch.
			answers, err := q.TrussNumbers(ctx, pairs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(answers, wantAnswers) {
				t.Fatalf("TrussNumbers disagree:\n got %v\nwant %v", answers, wantAnswers)
			}

			hist, err := q.Histogram(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(hist, wantHist) {
				t.Fatalf("Histogram = %v want %v", hist, wantHist)
			}

			for _, tc := range []struct {
				t    int
				want []truss.ClassSummary
			}{{0, wantTopAll}, {2, wantTop2}} {
				got, err := q.TopClasses(ctx, tc.t)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, tc.want) {
					t.Fatalf("TopClasses(%d) = %v want %v", tc.t, got, tc.want)
				}
			}

			// Communities at every level (plus one past kmax: empty
			// everywhere, an error nowhere).
			for k := int32(3); k <= fx.kmax+1; k++ {
				want, err := fx.reference.Communities(ctx, k)
				if err != nil {
					t.Fatal(err)
				}
				got, err := q.Communities(ctx, k)
				if err != nil {
					t.Fatalf("Communities(%d): %v", k, err)
				}
				if len(got) != len(want) {
					t.Fatalf("Communities(%d): %d communities want %d", k, len(got), len(want))
				}
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("Communities(%d)[%d]:\n got %+v\nwant %+v", k, i, got[i], want[i])
					}
				}
			}
			// k < 3 is rejected by every implementation.
			if _, err := q.Communities(ctx, 2); err == nil {
				t.Fatal("Communities(2) did not error")
			}

			// Edge streaming at the interesting levels, order-normalized
			// (the stream order is the one documented liberty).
			for _, k := range []int32{0, 2, 3, fx.kmax, fx.kmax + 1} {
				got := collectEdges(t, q, k)
				want := collectEdges(t, fx.reference, k)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("KTrussEdges(%d): %d edges want %d (or payload mismatch)", k, len(got), len(want))
				}
			}
		})
	}
}

// TestQuerierCancellation: a canceled context surfaces as an error from
// every implementation rather than a silent empty answer.
func TestQuerierCancellation(t *testing.T) {
	fx := newParityFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for name, q := range fx.queriers {
		t.Run(name, func(t *testing.T) {
			if _, err := q.TrussNumbers(ctx, fx.g.Edges()); err == nil {
				t.Error("TrussNumbers with canceled context did not error")
			}
			seq, errf := q.KTrussEdges(ctx, 0)
			n := 0
			for range seq {
				n++
			}
			if err := errf(); err == nil {
				t.Errorf("KTrussEdges with canceled context yielded %d edges and no error", n)
			}
		})
	}
}

// TestBuildIndexFromFastPath: the in-memory fast path and the streaming
// path agree with BuildIndex through every exported query. Wrapping the
// in-memory decomposition hides it from AsInMemory, which forces the
// stream path.
func TestBuildIndexFromFastPath(t *testing.T) {
	ctx := context.Background()
	g := gen.BarabasiAlbert(150, 4, 9)
	d, err := truss.Run(ctx, truss.FromGraph(g))
	if err != nil {
		t.Fatal(err)
	}
	res, _ := truss.AsInMemory(d)
	want := truss.BuildIndex(res)

	fast, err := truss.BuildIndexFrom(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	forced, err := truss.BuildIndexFrom(ctx, struct{ truss.Decomposition }{d})
	if err != nil {
		t.Fatal(err)
	}
	for name, ix := range map[string]*truss.Index{"fast": fast, "streamed": forced} {
		if !reflect.DeepEqual(ix.Histogram(), want.Histogram()) {
			t.Fatalf("%s: histogram mismatch", name)
		}
		for _, e := range g.Edges() {
			gk, gok := ix.TrussNumber(e.U, e.V)
			wk, wok := want.TrussNumber(e.U, e.V)
			if gk != wk || gok != wok {
				t.Fatalf("%s: TrussNumber%v = (%d,%v) want (%d,%v)", name, e, gk, gok, wk, wok)
			}
		}
		for k := int32(3); k <= want.KMax(); k++ {
			if ix.CommunityCount(k) != want.CommunityCount(k) {
				t.Fatalf("%s: CommunityCount(%d) mismatch", name, k)
			}
		}
	}

	if _, err := truss.BuildIndexFrom(ctx, nil); err == nil {
		t.Fatal("BuildIndexFrom(nil) did not error")
	}
}

// TestOpenRejectsNilSource: the satellite fix — Open fails fast on a nil
// source with an error naming Open, before engine validation can
// confuse the message.
func TestOpenRejectsNilSource(t *testing.T) {
	_, err := truss.Open(context.Background(), nil)
	if err == nil {
		t.Fatal("Open(nil) did not error")
	}
	if !strings.Contains(err.Error(), "Open") || !strings.Contains(err.Error(), "non-nil Source") {
		t.Fatalf("error %q does not name Open and the nil source", err)
	}
	// Even with an invalid engine configured, the nil source wins.
	_, err = truss.Open(context.Background(), nil, truss.WithEngine(truss.EngineBottomUp))
	if err == nil || !strings.Contains(err.Error(), "non-nil Source") {
		t.Fatalf("Open(nil, bottomup) = %v, want the nil-source error", err)
	}
}

// TestMmapQuerierParityAfterPatch: the mmap-backed view must stay
// answer-for-answer with a fresh decomposition after Patch overlays a
// mutation batch on the mapped base — and keep agreeing after the
// mapping itself is closed, since Patch output is pure heap
// (copy-on-write, never aliasing mapped pages it might outlive).
func TestMmapQuerierParityAfterPatch(t *testing.T) {
	ctx := context.Background()
	g := gen.WithPlantedCliques(gen.Community(3, 11, 0.8, 1.5, 17), []int{7}, 9)
	res := decompose(t, g)

	path := filepath.Join(t.TempDir(), "g.tix")
	if err := truss.WriteIndexFile(path, truss.BuildIndex(res), "patch-parity"); err != nil {
		t.Fatal(err)
	}
	f, err := truss.OpenIndexFile(path)
	if err != nil {
		t.Fatal(err)
	}

	upd, err := dynamic.Update(ctx, g, res.Phi, dynamic.Batch{
		Adds: []truss.Edge{{U: 0, V: 5}, {U: 1, V: 20}, {U: 100, V: 101}},
		Dels: []truss.Edge{g.Edge(2)},
	}, dynamic.Config{})
	if err != nil {
		t.Fatal(err)
	}
	patched := f.Index().Patch(upd.G, upd.Phi, upd.KMax, upd.Remap, upd.Changed)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	q := truss.QueryIndex(patched)
	ref := truss.QueryIndex(truss.BuildIndex(decompose(t, upd.G)))

	pairs := upd.G.Edges()
	got, err := q.TrussNumbers(ctx, pairs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.TrussNumbers(ctx, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TrussNumbers after patch disagree:\n got %v\nwant %v", got, want)
	}
	gh, _ := q.Histogram(ctx)
	wh, _ := ref.Histogram(ctx)
	if !reflect.DeepEqual(gh, wh) {
		t.Fatalf("Histogram after patch = %v want %v", gh, wh)
	}
	for k := int32(3); k <= patched.KMax()+1; k++ {
		gc, err := q.Communities(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		wc, err := ref.Communities(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gc, wc) {
			t.Fatalf("Communities(%d) after patch: %d communities want %d", k, len(gc), len(wc))
		}
	}
}
