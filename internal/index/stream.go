package index

import (
	"context"
	"fmt"
	"runtime"
	"sort"

	"repro/internal/graph"
	"repro/internal/triangle"
)

// EdgeStream is the shape of a decomposition's edge enumerator: it calls
// fn once per classified edge with its truss number, in any order, and
// propagates fn's first error. It matches the Edges method of the public
// Decomposition interface, so any engine's output — an in-memory Result,
// a disk-resident class spool, a MapReduce edge map — can feed BuildFromStream.
type EdgeStream func(fn func(u, v uint32, phi int32) error) error

// streamCtxMask throttles cancellation checks while consuming the stream:
// the context is polled once per (mask+1) edges.
const streamCtxMask = 4095

// BuildFromStream constructs a TrussIndex by consuming a (u, v, phi)
// edge stream, reconstructing the graph and truss numbers as it goes —
// the path that makes external-memory and MapReduce decompositions
// indexable without ever materializing a core.Result. numVertices sizes
// the vertex-ID space (it is grown if the stream contains larger IDs).
//
// The stream must describe a simple graph: self-loops and duplicate
// edges are errors, not silently dropped — a decomposition that emits
// them is corrupt, and dropping one of two conflicting phi values would
// hide it. So is an edge with truss number 2 that lies on a triangle
// (every edge of a triangle has truss number at least 3), and a top class
// kmax of fewer than kmax(kmax-1)/2 edges (a k-truss has at least k
// vertices, each of degree at least k-1 inside it). That check runs
// before anything is sized by kmax, so one edge cannot ask for a million
// levels. Cost over Build from an in-memory Result is one sort of the
// edge list (the stream order is engine-dependent) plus a transient 12
// bytes per edge; the finished index is structurally identical to what
// Build produces on the equivalent Result.
func BuildFromStream(ctx context.Context, numVertices int, stream EdgeStream) (*TrussIndex, error) {
	type rec struct {
		key uint64
		phi int32
	}
	var recs []rec
	count := 0
	err := stream(func(u, v uint32, phi int32) error {
		if u == v {
			return fmt.Errorf("index: stream contains self-loop (%d,%d)", u, v)
		}
		if phi < 2 {
			// Truss numbers are >= 2 by definition; anything lower would
			// corrupt the index's per-class arrays.
			return fmt.Errorf("index: stream contains edge (%d,%d) with invalid truss number %d", u, v, phi)
		}
		if count&streamCtxMask == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		count++
		recs = append(recs, rec{key: graph.Edge{U: u, V: v}.Key(), phi: phi})
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Edge IDs are assigned in lexicographic (U,V) order, exactly as the
	// Builder does, so the reconstructed graph is indistinguishable from
	// one built alongside the original decomposition.
	sort.Slice(recs, func(i, j int) bool { return recs[i].key < recs[j].key })
	edges := make([]graph.Edge, len(recs))
	phi := make([]int32, len(recs))
	kmax, top := int32(0), 0 // top counts the edges at kmax
	n := numVertices
	for i, r := range recs {
		e := graph.EdgeFromKey(r.key)
		if i > 0 && r.key == recs[i-1].key {
			return nil, fmt.Errorf("index: stream contains edge %v twice (phi %d and %d)",
				e, recs[i-1].phi, r.phi)
		}
		edges[i] = e
		phi[i] = r.phi
		if r.phi > kmax {
			kmax, top = r.phi, 0
		}
		if r.phi == kmax {
			top++
		}
		if int(e.V) >= n {
			n = int(e.V) + 1
		}
	}
	if k := int64(kmax); int64(top) < k*(k-1)/2 {
		return nil, fmt.Errorf("index: stream gives %d edges truss number %d, but a %d-truss has at least %d edges",
			top, kmax, kmax, k*(k-1)/2)
	}
	g, err := graph.FromCanonicalEdges(edges, n)
	if err != nil {
		return nil, fmt.Errorf("index: reconstructing graph from stream: %w", err)
	}
	ix := &TrussIndex{g: g, phi: phi, kmax: kmax}
	ix.initArrays()
	// buildLevels counts the triangles such an edge lies on only when
	// there are levels to build; below that, look for one directly.
	if ix.buildLevels(runtime.GOMAXPROCS(0)) > 0 || ix.kmax < 3 {
		if e, ok := ix.classTwoTriangleEdge(); ok {
			return nil, fmt.Errorf("index: stream gives edge %v truss number 2, but it lies on a triangle", e)
		}
	}
	return ix, nil
}

// classTwoTriangleEdge returns the lowest-ID edge of truss number 2 that
// lies on a triangle, if there is one.
func (ix *TrussIndex) classTwoTriangleEdge() (graph.Edge, bool) {
	kern := triangle.NewSearchKernel(ix.g)
	for _, id := range ix.Class(2) {
		e := ix.g.Edge(id)
		found := false
		kern.ForEachLive(e.U, e.V, triangle.NoneDead, func(_, _ int32) { found = true })
		if found {
			return e, true
		}
	}
	return graph.Edge{}, false
}
