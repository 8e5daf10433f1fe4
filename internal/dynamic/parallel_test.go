package dynamic

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// TestParallelRegionDifferential drives the same randomized mutation
// sequences as the serial suite across worker counts; checkExact holds
// each step to a fresh decomposition.
func TestParallelRegionDifferential(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		for seed := int64(40); seed <= 46; seed++ {
			runSequence(t, seed, 5, 5, Config{
				MaxRegionFraction: 2, // never fall back: exercise the peel itself
				Workers:           workers,
			})
		}
	}
}

// TestParallelRegionMatchesSerial compares one worker against four on
// identical batches whose regions (368-386 edges) fan out: same phi, same
// stats shape, and only the multi-worker run reports fan-out.
func TestParallelRegionMatchesSerial(t *testing.T) {
	for seed := int64(60); seed <= 66; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := gen.ErdosRenyi(60, 400, seed)
		phi := core.Decompose(g).Phi
		batch := randomBatch(rng, g, 12, 12)

		serial, err := Update(context.Background(), g, phi, batch, Config{
			MaxRegionFraction: 2,
			Workers:           1,
		})
		if err != nil {
			t.Fatalf("seed %d serial: %v", seed, err)
		}
		par, err := Update(context.Background(), g, phi, batch, Config{
			MaxRegionFraction: 2,
			Workers:           4,
		})
		if err != nil {
			t.Fatalf("seed %d parallel: %v", seed, err)
		}

		if serial.Stats.ParallelPeels != 0 {
			t.Fatalf("seed %d: one-worker run reported %d parallel peels", seed, serial.Stats.ParallelPeels)
		}
		if par.Stats.ParallelPeels == 0 {
			t.Fatalf("seed %d: four-worker run never fanned out (stats %+v)", seed, par.Stats)
		}
		samePhi(t, serial, par)
		if serial.Stats.Region != par.Stats.Region || serial.Stats.Boundary != par.Stats.Boundary {
			t.Fatalf("seed %d: stats diverge: serial %+v vs parallel %+v", seed, serial.Stats, par.Stats)
		}
	}
}

// TestParallelRegionFanOut drives every phase of the re-peel past the
// 256-item fan-out, the boundary retirements included: deleting the star
// of one vertex of a planted K48 in an RMAT graph re-peels a region of
// about 1,200 edges against about 1,300 frozen ones, and the remaining
// K47's 1,081 edges die in one frontier. The result must be exact and
// identical for every worker count, and fan-out must be reported exactly
// when Workers > 1.
func TestParallelRegionFanOut(t *testing.T) {
	g := gen.WithPlantedCliques(gen.RMAT(10, 8, 0.57, 0.19, 0.19, 71), []int{48}, 71)
	dec := core.Decompose(g)
	hub := uint32(g.NumVertices())
	for id, p := range dec.Phi {
		if p == dec.KMax {
			hub = min(hub, g.Edge(int32(id)).U)
		}
	}
	var batch Batch
	for id, p := range dec.Phi {
		if e := g.Edge(int32(id)); p == dec.KMax && e.U == hub {
			batch.Dels = append(batch.Dels, e)
		}
	}

	var ref *Result
	for _, workers := range []int{1, 2, 4, 8} {
		res, err := Update(context.Background(), g, dec.Phi, batch, Config{MaxRegionFraction: 2, Workers: workers})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if workers == 1 {
			checkExact(t, res, dec.Phi)
			if res.Stats.Region < 256 || res.Stats.Boundary < 256 {
				t.Fatalf("region %d, boundary %d: the case no longer reaches the fan-out size", res.Stats.Region, res.Stats.Boundary)
			}
			if res.Stats.ParallelPeels != 0 {
				t.Fatalf("one-worker run reported %d parallel peels", res.Stats.ParallelPeels)
			}
			ref = res
			continue
		}
		if res.Stats.ParallelPeels == 0 {
			t.Fatalf("workers %d: never fanned out (stats %+v)", workers, res.Stats)
		}
		samePhi(t, ref, res)
		if res.Stats.Region != ref.Stats.Region || res.Stats.Boundary != ref.Stats.Boundary ||
			res.Stats.Expansions != ref.Stats.Expansions {
			t.Fatalf("workers %d: stats %+v, one worker %+v", workers, res.Stats, ref.Stats)
		}
	}
}

// samePhi fails unless a and b assign every edge the same truss number.
func samePhi(t *testing.T, a, b *Result) {
	t.Helper()
	if len(a.Phi) != len(b.Phi) {
		t.Fatalf("phi lengths differ: %d vs %d", len(a.Phi), len(b.Phi))
	}
	for id := range a.Phi {
		if a.Phi[id] != b.Phi[id] {
			t.Fatalf("phi(%v) = %d vs %d", a.G.Edge(int32(id)), a.Phi[id], b.Phi[id])
		}
	}
}

// TestParallelRegionCancellation: the peel polls ctx between stages.
func TestParallelRegionCancellation(t *testing.T) {
	g := gen.ErdosRenyi(60, 400, 9)
	phi := core.Decompose(g).Phi
	rng := rand.New(rand.NewSource(9))
	batch := randomBatch(rng, g, 10, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Update(ctx, g, phi, batch, Config{
		MaxRegionFraction: 2, Workers: 4,
	}); err == nil {
		t.Fatal("cancelled parallel update returned nil error")
	}
}
