package dynamic

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// checkExact verifies that res carries exactly the decomposition a fresh
// peel of res.G produces, and that Changed is precisely the delta.
func checkExact(t *testing.T, res *Result, carried []int32) {
	t.Helper()
	want := core.Decompose(res.G)
	if res.KMax != want.KMax {
		t.Fatalf("kmax = %d, want %d (stats %+v)", res.KMax, want.KMax, res.Stats)
	}
	for id, p := range want.Phi {
		if res.Phi[id] != p {
			e := res.G.Edge(int32(id))
			t.Fatalf("phi(%v) = %d, want %d (stats %+v)", e, res.Phi[id], p, res.Stats)
		}
	}
	changed := map[int32]bool{}
	for _, id := range res.Changed {
		changed[id] = true
	}
	for newID, oldID := range res.Remap.NewToOld {
		isNew := oldID < 0
		differs := carried != nil && !isNew && res.Phi[newID] != carried[oldID]
		if (isNew || differs) != changed[int32(newID)] {
			t.Fatalf("edge %d: inserted=%v differs=%v but changed=%v",
				newID, isNew, differs, changed[int32(newID)])
		}
	}
}

// randomBatch draws a mutation batch from g's current edge set.
func randomBatch(rng *rand.Rand, g *graph.Graph, nAdds, nDels int) Batch {
	var b Batch
	n := g.NumVertices() + 2
	for i := 0; i < nAdds; i++ {
		b.Adds = append(b.Adds, graph.Edge{U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n))})
	}
	edges := g.Edges()
	for i := 0; i < nDels && len(edges) > 0; i++ {
		b.Dels = append(b.Dels, edges[rng.Intn(len(edges))])
	}
	return b
}

func runSequence(t *testing.T, seed int64, nAdds, nDels int, cfg Config) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := gen.ErdosRenyi(40, 220, seed)
	phi := core.Decompose(g).Phi
	for step := 0; step < 12; step++ {
		batch := randomBatch(rng, g, nAdds, nDels)
		res, err := Update(context.Background(), g, phi, batch, cfg)
		if err != nil {
			t.Fatalf("seed %d step %d: %v", seed, step, err)
		}
		checkExact(t, res, phi)
		g, phi = res.G, res.Phi
	}
}

func TestUpdateMixed(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		runSequence(t, seed, 4, 4, Config{})
	}
}

func TestUpdateAddOnly(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		runSequence(t, seed, 5, 0, Config{})
	}
}

func TestUpdateDeleteOnly(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		runSequence(t, seed, 0, 5, Config{})
	}
}

// TestUpdateNeverFallback forces the local path (region may grow to the
// whole graph but must still be exact).
func TestUpdateNeverFallback(t *testing.T) {
	for seed := int64(20); seed <= 26; seed++ {
		runSequence(t, seed, 5, 5, Config{MaxRegionFraction: 2})
	}
}

// TestUpdateAlwaysFallback forces the recompute path and checks the delta
// reporting stays correct.
func TestUpdateAlwaysFallback(t *testing.T) {
	g := gen.ErdosRenyi(40, 200, 3)
	phi := core.Decompose(g).Phi
	res, err := Update(context.Background(), g, phi,
		Batch{Adds: []graph.Edge{{U: 0, V: 1}, {U: 41, V: 42}}, Dels: g.Edges()[:3]},
		Config{MaxRegionFraction: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.FellBack {
		t.Fatal("expected fallback")
	}
	checkExact(t, res, phi)
}

// TestUpdateDenseClique exercises promotions across many levels: growing
// a clique edge by edge keeps raising truss numbers.
func TestUpdateDenseClique(t *testing.T) {
	g := gen.PaperExample()
	phi := core.Decompose(g).Phi
	const k = 9
	for u := uint32(0); u < k; u++ {
		for v := u + 1; v < k; v++ {
			res, err := Update(context.Background(), g, phi,
				Batch{Adds: []graph.Edge{{U: u, V: v}}}, Config{MaxRegionFraction: 2})
			if err != nil {
				t.Fatal(err)
			}
			checkExact(t, res, phi)
			g, phi = res.G, res.Phi
		}
	}
	if kmax := maxPhi(phi); kmax < k {
		t.Fatalf("kmax = %d after building K%d, want >= %d", kmax, k, k)
	}
}

// TestUpdateTearDown deletes a planted clique one edge at a time,
// exercising multi-level demotions.
func TestUpdateTearDown(t *testing.T) {
	base := gen.ErdosRenyi(30, 100, 5)
	g := gen.WithPlantedCliques(base, []int{8}, 11)
	phi := core.Decompose(g).Phi
	rng := rand.New(rand.NewSource(13))
	for step := 0; step < 15 && g.NumEdges() > 0; step++ {
		edges := g.Edges()
		res, err := Update(context.Background(), g, phi,
			Batch{Dels: []graph.Edge{edges[rng.Intn(len(edges))]}}, Config{MaxRegionFraction: 2})
		if err != nil {
			t.Fatal(err)
		}
		checkExact(t, res, phi)
		g, phi = res.G, res.Phi
	}
}

func TestUpdateEmptyBatch(t *testing.T) {
	g := gen.PaperExample()
	phi := core.Decompose(g).Phi
	res, err := Update(context.Background(), g, phi, Batch{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changed) != 0 || res.Stats.Region != 0 {
		t.Fatalf("no-op batch changed %d edges, region %d", len(res.Changed), res.Stats.Region)
	}
	checkExact(t, res, phi)
	// A batch that only touches absent edges collapses to a no-op too.
	res, err = Update(context.Background(), g, phi,
		Batch{Dels: []graph.Edge{{U: 90, V: 91}}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changed) != 0 {
		t.Fatalf("absent-edge delete changed %d edges", len(res.Changed))
	}
}

func TestUpdatePhiMismatch(t *testing.T) {
	g := gen.PaperExample()
	if _, err := Update(context.Background(), g, make([]int32, 3), Batch{}, Config{}); err == nil {
		t.Fatal("want error for wrong phi length")
	}
}

func TestUpdateCancelled(t *testing.T) {
	g := gen.ErdosRenyi(40, 200, 9)
	phi := core.Decompose(g).Phi
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Update(ctx, g, phi, Batch{Adds: []graph.Edge{{U: 0, V: 1}}}, Config{}); err == nil {
		t.Fatal("want context error")
	}
}

// TestUpdateFromEmpty grows a graph from nothing, one batch at a time.
func TestUpdateFromEmpty(t *testing.T) {
	var g *graph.Graph = new(graph.Graph)
	var phi []int32
	rng := rand.New(rand.NewSource(21))
	for step := 0; step < 10; step++ {
		batch := Batch{}
		for i := 0; i < 6; i++ {
			batch.Adds = append(batch.Adds, graph.Edge{U: uint32(rng.Intn(15)), V: uint32(rng.Intn(15))})
		}
		res, err := Update(context.Background(), g, phi, batch, Config{})
		if err != nil {
			t.Fatal(err)
		}
		checkExact(t, res, phi)
		g, phi = res.G, res.Phi
	}
}

// FuzzUpdate holds Update to a fresh decomposition on fuzzed inputs. The
// first byte picks Workers 1-4; each following byte pair (a, b) is an edge
// on 32 vertices (a%32, b%32) whose role a/32 picks: 0-3 a graph edge, 4-5
// an insertion, 6-7 a deletion. MaxRegionFraction 2 keeps Update off the
// fallback, so every input runs the restricted peel.
func FuzzUpdate(f *testing.F) {
	enc := func(workers byte, graphEdges, adds, dels []graph.Edge) []byte {
		b := []byte{workers}
		for role, es := range [][]graph.Edge{graphEdges, adds, dels} {
			for _, e := range es {
				b = append(b, byte(e.U)|[3]byte{0, 4 << 5, 6 << 5}[role], byte(e.V))
			}
		}
		return b
	}
	paper := gen.PaperExample().Edges()
	f.Add(enc(0, paper, []graph.Edge{{U: 8, V: 9}, {U: 10, V: 11}}, paper[20:22]))
	var clique []graph.Edge
	for u := uint32(0); u < 8; u++ {
		for v := u + 1; v < 8; v++ {
			clique = append(clique, graph.Edge{U: u, V: v})
		}
	}
	planted := append(gen.ErdosRenyi(32, 60, 3).Edges(), clique...)
	f.Add(enc(3, planted, []graph.Edge{{U: 0, V: 20}, {U: 1, V: 20}}, clique[:3]))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		workers := 1 + int(data[0]%4)
		var edges []graph.Edge
		var batch Batch
		for i := 1; i+2 <= len(data); i += 2 {
			e := graph.Edge{U: uint32(data[i] % 32), V: uint32(data[i+1] % 32)}
			switch data[i] / 32 {
			case 0, 1, 2, 3:
				edges = append(edges, e)
			case 4, 5:
				batch.Adds = append(batch.Adds, e)
			default:
				batch.Dels = append(batch.Dels, e)
			}
		}
		g := graph.FromEdges(edges)
		phi := core.Decompose(g).Phi
		res, err := Update(context.Background(), g, phi, batch, Config{MaxRegionFraction: 2, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		checkExact(t, res, phi)
	})
}
