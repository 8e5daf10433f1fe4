package truss_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	truss "repro"
	"repro/internal/gen"
)

// phiMap collects a decomposition's edge → truss-number map.
func phiMap(t *testing.T, d truss.Decomposition) map[uint64]int32 {
	t.Helper()
	out := map[uint64]int32{}
	err := d.Edges(func(u, v uint32, phi int32) error {
		out[truss.Edge{U: u, V: v}.Key()] = phi
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestOpenUpdateDifferential mutates an Open decomposition through random
// batches and diffs it against a fresh Run of the mutated graph after
// every step — the public-API half of the exactness contract, across
// add-only, delete-only and mixed workloads.
func TestOpenUpdateDifferential(t *testing.T) {
	for _, tc := range []struct {
		name         string
		nAdds, nDels int
	}{
		{"mixed", 4, 4},
		{"add-only", 6, 0},
		{"delete-only", 0, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			g := gen.ErdosRenyi(50, 260, 17)
			d, err := truss.Open(ctx, truss.FromGraph(g))
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()

			rng := rand.New(rand.NewSource(17))
			cur := g
			for step := 0; step < 10; step++ {
				var adds, dels []truss.Edge
				for i := 0; i < tc.nAdds; i++ {
					adds = append(adds, truss.Edge{U: uint32(rng.Intn(55)), V: uint32(rng.Intn(55))})
				}
				for i := 0; i < tc.nDels && cur.NumEdges() > 0; i++ {
					dels = append(dels, cur.Edges()[rng.Intn(cur.NumEdges())])
				}
				if _, err := d.Update(ctx, adds, dels); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				res, _ := truss.AsInMemory(d)
				cur = res.G

				fresh, err := truss.Run(ctx, truss.FromGraph(cur))
				if err != nil {
					t.Fatal(err)
				}
				want := phiMap(t, fresh)
				got := phiMap(t, d)
				fresh.Close()
				if len(got) != len(want) {
					t.Fatalf("step %d: %d edges, want %d", step, len(got), len(want))
				}
				for k, p := range want {
					if got[k] != p {
						t.Fatalf("step %d: phi(%v) = %d, want %d", step, truss.EdgeFromKey(k), got[k], p)
					}
				}
				if d.KMax() != fresh.KMax() {
					t.Fatalf("step %d: kmax %d, want %d", step, d.KMax(), fresh.KMax())
				}
			}
		})
	}
}

// TestUpdateFallback drives Update past its default region limit, a
// quarter of the mutated graph's edges, through the public API. A clique
// on fresh vertices shares no triangle with the old graph, so its region
// is exactly its own edges: a 13-clique brings 78 against a limit of 69
// (a quarter of 278) and falls back to a full recompute, while a
// 12-clique brings 66 against 66 and stays local. Either way the result
// must equal a fresh Run.
func TestUpdateFallback(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		clique   uint32
		fellBack bool
	}{{12, false}, {13, true}} {
		d, err := truss.Open(ctx, truss.FromGraph(gen.ErdosRenyi(40, 200, 3)))
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		var adds []truss.Edge
		for u := uint32(100); u < 100+tc.clique; u++ {
			for v := u + 1; v < 100+tc.clique; v++ {
				adds = append(adds, truss.Edge{U: u, V: v})
			}
		}
		st, err := d.Update(ctx, adds, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.FellBack != tc.fellBack {
			t.Fatalf("%d-clique: stats = %+v, want FellBack %v", tc.clique, st, tc.fellBack)
		}
		res, _ := truss.AsInMemory(d)
		if want, got := phiMap(t, run(t, truss.FromGraph(res.G))), phiMap(t, d); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d-clique: phi after Update differs from a fresh Run", tc.clique)
		}
	}
}

// TestUpdateUnsupportedEngines checks the external and MapReduce
// decompositions refuse Update with the sentinel error, and that Open
// refuses those engines outright.
func TestUpdateUnsupportedEngines(t *testing.T) {
	ctx := context.Background()
	g := gen.PaperExample()
	for _, eng := range []truss.Engine{truss.EngineBottomUp, truss.EngineTopDown, truss.EngineMapReduce} {
		d, err := truss.Run(ctx, truss.FromGraph(g),
			truss.WithEngine(eng), truss.WithTempDir(t.TempDir()))
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		if _, err := d.Update(ctx, []truss.Edge{{U: 0, V: 99}}, nil); !errors.Is(err, truss.ErrUpdateUnsupported) {
			t.Fatalf("%v: Update err = %v, want ErrUpdateUnsupported", eng, err)
		}
		d.Close()

		if _, err := truss.Open(ctx, truss.FromGraph(g), truss.WithEngine(eng)); err == nil {
			t.Fatalf("Open accepted engine %v", eng)
		}
	}
}

// TestOpenFromFile exercises Open over a file source and a pure-deletion
// update.
func TestOpenFromFile(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	path := dir + "/g.txt"
	g := gen.PaperExample()
	if err := truss.SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	d, err := truss.Open(ctx, truss.FromFile(path), truss.WithEngine(truss.EngineParallel))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	before := d.NumEdges()
	st, err := d.Update(ctx, nil, []truss.Edge{g.Edge(0)})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumEdges() != before-1 {
		t.Fatalf("m = %d after deletion, want %d", d.NumEdges(), before-1)
	}
	if st.Changed == 0 {
		t.Fatalf("stats = %+v, want changed edges", st)
	}
}
