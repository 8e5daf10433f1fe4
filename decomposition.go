package truss

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/embu"
	"repro/internal/emtd"
	"repro/internal/gio"
	"repro/internal/mapreduce"
)

// Decomposition is the common view over a completed truss decomposition,
// whatever engine produced it: truss numbers (via Edges), the k-class
// histogram, and kmax. In-memory results answer everything from RAM;
// external results stream their disk-resident class spool. Always Close a
// Decomposition when done — external results hold spool files.
//
// For engine-specific detail (Result views, external traces, MapReduce
// counters) downcast with AsInMemory, AsBottomUp, AsTopDown, AsMapReduce.
type Decomposition interface {
	// Engine reports which engine produced this decomposition.
	Engine() Engine
	// KMax is the maximum truss number over all classified edges.
	KMax() int32
	// NumVertices is the vertex-ID space of the input graph.
	NumVertices() int
	// NumEdges is the number of classified edges. For a top-t run this
	// covers only the computed classes, not the whole graph.
	NumEdges() int64
	// Histogram returns |Phi_k| indexed by k, length KMax+1 (entries 0
	// and 1 are always zero). For a top-t run only the computed classes
	// are populated.
	Histogram() []int64
	// Edges streams every classified edge with its truss number. The
	// order is engine-dependent.
	Edges(fn func(u, v uint32, phi int32) error) error
	// Update applies a batch of edge insertions and deletions and
	// maintains the decomposition incrementally: only the affected region
	// is re-peeled (with a full recompute fallback when the region grows
	// past a quarter of the graph's edges), and the result is exactly what
	// a fresh Run over the mutated graph would produce. Supported by the
	// in-memory engines (use Open to guarantee it); the external and
	// MapReduce engines return ErrUpdateUnsupported. Update replaces the
	// decomposition in place — results previously unwrapped with
	// AsInMemory keep describing the pre-update state — and must not run
	// concurrently with readers of the same Decomposition.
	Update(ctx context.Context, adds, dels []Edge) (*UpdateStats, error)
	// Close releases disk-backed resources (a no-op for in-memory
	// engines).
	Close() error
}

// UpdateStats describes how a Decomposition.Update was carried out:
// region and boundary sizes, expansion rounds, the number of changed
// edges, and whether the maintainer fell back to a full recompute.
type UpdateStats = dynamic.Stats

// ErrUpdateUnsupported is returned by Decomposition.Update when the
// engine that produced the decomposition has no incremental maintenance
// path (external and MapReduce engines).
var ErrUpdateUnsupported = errors.New("truss: this decomposition does not support incremental updates (use Open or an in-memory engine)")

// AsInMemory returns the underlying in-memory Result when d was produced
// by EngineInMem, EngineBaseline, or EngineParallel — the full Result API
// (Class, Truss, MaxTruss, Verify, BuildIndex, Communities, WriteDOT)
// remains available on it.
func AsInMemory(d Decomposition) (*Result, bool) {
	if im, ok := d.(*inmemDecomposition); ok {
		return im.res, true
	}
	return nil, false
}

// AsBottomUp returns the underlying disk-resident result when d was
// produced by EngineBottomUp (per-edge class spool, I/O trace).
func AsBottomUp(d Decomposition) (*ExternalResult, bool) {
	if bu, ok := d.(*bottomUpDecomposition); ok {
		return bu.res, true
	}
	return nil, false
}

// AsTopDown returns the underlying top-down result when d was produced by
// EngineTopDown (computed classes, kinit trace).
func AsTopDown(d Decomposition) (*TopDownResult, bool) {
	if td, ok := d.(*topDownDecomposition); ok {
		return td.res, true
	}
	return nil, false
}

// AsMapReduce returns the underlying TD-MR result when d was produced by
// EngineMapReduce (per-edge map, simulated-cluster counters).
func AsMapReduce(d Decomposition) (*MapReduceResult, bool) {
	if mr, ok := d.(*mapReduceDecomposition); ok {
		return mr.res, true
	}
	return nil, false
}

// inmemDecomposition adapts a core.Result.
type inmemDecomposition struct {
	eng Engine
	res *core.Result
	// workers bounds incremental maintenance (set from WithWorkers at Run
	// time).
	workers int
}

func (d *inmemDecomposition) Engine() Engine   { return d.eng }
func (d *inmemDecomposition) KMax() int32      { return d.res.KMax }
func (d *inmemDecomposition) NumVertices() int { return d.res.G.NumVertices() }
func (d *inmemDecomposition) NumEdges() int64  { return int64(len(d.res.Phi)) }
func (d *inmemDecomposition) Close() error     { return nil }

func (d *inmemDecomposition) Update(ctx context.Context, adds, dels []Edge) (*UpdateStats, error) {
	res, err := dynamic.Update(ctx, d.res.G, d.res.Phi,
		dynamic.Batch{Adds: adds, Dels: dels},
		dynamic.Config{Workers: d.workers})
	if err != nil {
		return nil, err
	}
	// Swap in a fresh Result: previously unwrapped Results stay valid
	// immutable snapshots of the pre-update state.
	d.res = &core.Result{G: res.G, Phi: res.Phi, KMax: res.KMax}
	st := res.Stats
	return &st, nil
}

func (d *inmemDecomposition) Histogram() []int64 { return d.res.ClassSizes() }

func (d *inmemDecomposition) Edges(fn func(u, v uint32, phi int32) error) error {
	for id, p := range d.res.Phi {
		e := d.res.G.Edge(int32(id))
		if err := fn(e.U, e.V, p); err != nil {
			return err
		}
	}
	return nil
}

// histogramFromSizes expands a sparse class-size map into the dense
// Histogram slice shape.
func histogramFromSizes(kmax int32, sizes map[int32]int64) []int64 {
	out := make([]int64, kmax+1)
	for k, n := range sizes {
		if k >= 0 && k <= kmax {
			out[k] = n
		}
	}
	return out
}

// spoolEdgesIter streams a class spool through the Decomposition edge
// callback shape.
func spoolEdgesIter(classes *gio.Spool[gio.EdgeAux], fn func(u, v uint32, phi int32) error) error {
	return classes.ForEach(func(r gio.EdgeAux) error {
		return fn(r.U, r.V, r.Aux)
	})
}

// errNoUpdate builds the per-engine ErrUpdateUnsupported error.
func errNoUpdate(eng Engine) error {
	return fmt.Errorf("%w: engine %v", ErrUpdateUnsupported, eng)
}

// bottomUpDecomposition adapts an embu.Result.
type bottomUpDecomposition struct{ res *embu.Result }

func (d *bottomUpDecomposition) Engine() Engine   { return EngineBottomUp }
func (d *bottomUpDecomposition) KMax() int32      { return d.res.KMax }
func (d *bottomUpDecomposition) NumVertices() int { return d.res.NumVertices }
func (d *bottomUpDecomposition) NumEdges() int64  { return d.res.Classes.Count() }
func (d *bottomUpDecomposition) Histogram() []int64 {
	return histogramFromSizes(d.res.KMax, d.res.ClassSizes)
}
func (d *bottomUpDecomposition) Update(ctx context.Context, adds, dels []Edge) (*UpdateStats, error) {
	return nil, errNoUpdate(EngineBottomUp)
}

func (d *bottomUpDecomposition) Close() error { return d.res.Close() }

func (d *bottomUpDecomposition) Edges(fn func(u, v uint32, phi int32) error) error {
	return spoolEdgesIter(d.res.Classes, fn)
}

// topDownDecomposition adapts an emtd.Result.
type topDownDecomposition struct{ res *emtd.Result }

func (d *topDownDecomposition) Engine() Engine   { return EngineTopDown }
func (d *topDownDecomposition) KMax() int32      { return d.res.KMax }
func (d *topDownDecomposition) NumVertices() int { return d.res.NumVertices }
func (d *topDownDecomposition) NumEdges() int64  { return d.res.Classes.Count() }
func (d *topDownDecomposition) Histogram() []int64 {
	return histogramFromSizes(d.res.KMax, d.res.ClassSizes)
}
func (d *topDownDecomposition) Update(ctx context.Context, adds, dels []Edge) (*UpdateStats, error) {
	return nil, errNoUpdate(EngineTopDown)
}

func (d *topDownDecomposition) Close() error { return d.res.Close() }

func (d *topDownDecomposition) Edges(fn func(u, v uint32, phi int32) error) error {
	return spoolEdgesIter(d.res.Classes, fn)
}

// mapReduceDecomposition adapts a mapreduce.Result.
type mapReduceDecomposition struct {
	res *mapreduce.Result
	n   int
}

func (d *mapReduceDecomposition) Engine() Engine   { return EngineMapReduce }
func (d *mapReduceDecomposition) KMax() int32      { return d.res.KMax }
func (d *mapReduceDecomposition) NumVertices() int { return d.n }
func (d *mapReduceDecomposition) NumEdges() int64  { return int64(len(d.res.Phi)) }
func (d *mapReduceDecomposition) Update(ctx context.Context, adds, dels []Edge) (*UpdateStats, error) {
	return nil, errNoUpdate(EngineMapReduce)
}

func (d *mapReduceDecomposition) Close() error { return nil }

func (d *mapReduceDecomposition) Histogram() []int64 {
	out := make([]int64, d.res.KMax+1)
	for _, p := range d.res.Phi {
		if p >= 0 && int(p) < len(out) {
			out[p]++
		}
	}
	return out
}

func (d *mapReduceDecomposition) Edges(fn func(u, v uint32, phi int32) error) error {
	for key, p := range d.res.Phi {
		if err := fn(uint32(key>>32), uint32(key), p); err != nil {
			return err
		}
	}
	return nil
}
