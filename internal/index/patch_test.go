package index

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
)

// sameIndex asserts two indexes are structurally identical — Patch must
// be indistinguishable from a fresh Build, community ordering included.
func sameIndex(t *testing.T, got, want *TrussIndex) {
	t.Helper()
	if got.kmax != want.kmax {
		t.Fatalf("kmax = %d, want %d", got.kmax, want.kmax)
	}
	if !slices.Equal(got.phi, want.phi) {
		t.Fatalf("phi differs")
	}
	if !slices.Equal(got.byPhi, want.byPhi) || !slices.Equal(got.pos, want.pos) ||
		!slices.Equal(got.cnt, want.cnt) || !slices.Equal(got.sizes, want.sizes) {
		t.Fatalf("permutation tables differ")
	}
	if len(got.levels) != len(want.levels) {
		t.Fatalf("levels %d, want %d", len(got.levels), len(want.levels))
	}
	for k := range want.levels {
		g, w := &got.levels[k], &want.levels[k]
		if !slices.Equal(g.edgeOrder, w.edgeOrder) ||
			!slices.Equal(g.commOff, w.commOff) ||
			!slices.Equal(g.commIdx, w.commIdx) {
			t.Fatalf("level %d community tables differ:\n got %+v\nwant %+v", k, *g, *w)
		}
	}
}

func TestPatchMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		var g *graph.Graph
		switch trial % 3 {
		case 0:
			g = gen.ErdosRenyi(35, 200, int64(trial))
		case 1:
			g = gen.WithPlantedCliques(gen.ErdosRenyi(30, 120, int64(trial)), []int{6}, int64(trial))
		default:
			g = gen.Community(3, 10, 0.6, 1.5, int64(trial))
		}
		phi := core.Decompose(g).Phi
		ix := Build(&core.Result{G: g, Phi: phi, KMax: maxOf(phi)})
		for step := 0; step < 6; step++ {
			var batch dynamic.Batch
			for i := 0; i < rng.Intn(5); i++ {
				batch.Adds = append(batch.Adds, graph.Edge{
					U: uint32(rng.Intn(g.NumVertices() + 2)),
					V: uint32(rng.Intn(g.NumVertices() + 2)),
				})
			}
			for i := 0; i < rng.Intn(5) && g.NumEdges() > 0; i++ {
				batch.Dels = append(batch.Dels, g.Edges()[rng.Intn(g.NumEdges())])
			}
			res, err := dynamic.Update(context.Background(), g, phi, batch, dynamic.Config{})
			if err != nil {
				t.Fatal(err)
			}
			patched := ix.Patch(res.G, res.Phi, res.KMax, res.Remap, res.Changed)
			fresh := Build(&core.Result{G: res.G, Phi: res.Phi, KMax: res.KMax})
			sameIndex(t, patched, fresh)
			g, phi, ix = res.G, res.Phi, patched
		}
	}
}

// TestPatchNoOpBatch covers the all-untouched translation path (kTouched
// stays at 2 when the batch only adds triangle-free edges). Above
// kTouched a level's offsets and community map are the receiver's own
// slices, except that a receiver borrowing its arrays (FromRawParts, as
// over a mapped file that may be unmapped while the patched index lives)
// has them copied.
func TestPatchNoOpBatch(t *testing.T) {
	g := gen.PaperExample()
	phi := core.Decompose(g).Phi
	built := Build(&core.Result{G: g, Phi: phi, KMax: maxOf(phi)})
	borrowed := FromRawParts(g, built.RawParts())
	res, err := dynamic.Update(context.Background(), g, phi,
		dynamic.Batch{Adds: []graph.Edge{{U: 50, V: 51}}}, dynamic.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fresh := Build(&core.Result{G: res.G, Phi: res.Phi, KMax: res.KMax})
	for _, tc := range []struct {
		name  string
		ix    *TrussIndex
		share bool
	}{{"built", built, true}, {"borrowed", borrowed, false}} {
		patched := tc.ix.Patch(res.G, res.Phi, res.KMax, res.Remap, res.Changed)
		sameIndex(t, patched, fresh)
		for k := int32(3); k <= res.KMax; k++ {
			got, old := &patched.levels[k], &tc.ix.levels[k]
			if &got.commIdx[0] == &old.commIdx[0] != tc.share || &got.commOff[0] == &old.commOff[0] != tc.share {
				t.Fatalf("%s receiver, level %d: want shared tables = %v", tc.name, k, tc.share)
			}
		}
	}
}

// TestPatchQueriesAgree drives the public query surface of a patched
// index against a fresh build on the paper's running example.
func TestPatchQueriesAgree(t *testing.T) {
	g := gen.PaperExample()
	phi := core.Decompose(g).Phi
	ix := Build(&core.Result{G: g, Phi: phi, KMax: maxOf(phi)})
	res, err := dynamic.Update(context.Background(), g, phi,
		dynamic.Batch{Dels: []graph.Edge{g.Edge(0)}}, dynamic.Config{})
	if err != nil {
		t.Fatal(err)
	}
	patched := ix.Patch(res.G, res.Phi, res.KMax, res.Remap, res.Changed)
	fresh := Build(&core.Result{G: res.G, Phi: res.Phi, KMax: res.KMax})
	if !slices.Equal(patched.Histogram(), fresh.Histogram()) {
		t.Fatal("histograms differ")
	}
	for k := int32(3); k <= fresh.KMax(); k++ {
		if patched.CommunityCount(k) != fresh.CommunityCount(k) {
			t.Fatalf("community count at %d differs", k)
		}
		for c := 0; c < fresh.CommunityCount(k); c++ {
			pc, _ := patched.Community(k, c)
			fc, _ := fresh.Community(k, c)
			if !slices.Equal(pc, fc) {
				t.Fatalf("community %d at level %d differs", c, k)
			}
		}
	}
}

func maxOf(phi []int32) int32 {
	var k int32
	for _, p := range phi {
		if p > k {
			k = p
		}
	}
	return k
}
