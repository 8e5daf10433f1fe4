// Package triangle implements triangle counting and listing, the
// initialization step of every truss-decomposition algorithm in the paper
// (Step 2 of Algorithm 2 cites the in-memory triangle counting algorithms of
// Schank [27] and Latapy [20]), and the per-edge listing every peel runs.
//
// The whole-graph entry point, Supports, computes sup(e) for every edge in
// O(m^1.5) time using the oriented "compact forward" technique: edges are
// directed from lower to higher *rank* (degree order, ties by ID), and for
// each directed edge (u->v) the sorted out-neighbor lists of u and v are
// intersected. Every triangle is discovered exactly once, at its lowest-rank
// vertex.
//
// Kernel lists the triangles of one edge at a time, the step a peel repeats
// for every edge it removes; every engine and serving path goes through its
// ForEachLive. ForEachMerge is the kernel's merge plan on its own, which
// Algorithm 1 runs as published.
package triangle

import "repro/internal/graph"

// Supports returns sup(e) for every edge of g, indexed by edge ID.
func Supports(g *graph.Graph) []int32 {
	sup := make([]int32, g.NumEdges())
	ForEach(g, func(e1, e2, e3 int32) {
		sup[e1]++
		sup[e2]++
		sup[e3]++
	})
	return sup
}

// Count returns the total number of triangles in g.
func Count(g *graph.Graph) int64 {
	var total int64
	ForEach(g, func(_, _, _ int32) { total++ })
	return total
}

// ForEach lists every triangle of g exactly once, invoking fn with the three
// edge IDs of the triangle: (u,v), (u,w), (v,w) for the triangle's vertices
// in rank order u < v < w.
func ForEach(g *graph.Graph, fn func(e1, e2, e3 int32)) {
	if g.NumVertices() == 0 {
		return
	}
	ForEachOriented(graph.BuildOriented(g), fn)
}

// ForEachOriented is ForEach over a prebuilt degree-ordered view, for
// callers that reuse the view across passes (the PKT core builds it once
// for support initialization). The out-lists live in rank space and are
// sorted, so each directed edge u->v costs one linear merge of
// out(u) x out(v); every common out-neighbor w closes triangle (u,v,w)
// with u the lowest-rank vertex.
func ForEachOriented(o *graph.Oriented, fn func(e1, e2, e3 int32)) {
	forEachOrientedRange(o, 0, int32(len(o.Vert)), fn)
}

// forEachOrientedRange enumerates the triangles rooted at ranks [lo, hi):
// the unit of work the parallel support counter fans out over.
func forEachOrientedRange(o *graph.Oriented, lo, hi int32, fn func(e1, e2, e3 int32)) {
	for u := lo; u < hi; u++ {
		us, ue := o.Off[u], o.Off[u+1]
		for i := us; i < ue; i++ {
			v := o.Nbr[i]
			euv := o.EID[i]
			a, b := i+1, o.Off[v]
			ve := o.Off[v+1]
			for a < ue && b < ve {
				ra, rb := o.Nbr[a], o.Nbr[b]
				switch {
				case ra < rb:
					a++
				case ra > rb:
					b++
				default:
					fn(euv, o.EID[a], o.EID[b])
					a++
					b++
				}
			}
		}
	}
}

// SupportsNaive computes sup(e) by merging both endpoints' full neighbor
// lists for every edge (ForEachMerge). It is O(sum over edges of
// deg(u)+deg(v)) and serves as the reference implementation for tests, and
// as the support-initialization step (Steps 2-3) of the baseline
// Algorithm 1.
func SupportsNaive(g *graph.Graph) []int32 {
	sup := make([]int32, g.NumEdges())
	for id, e := range g.Edges() {
		ForEachMerge(g, e.U, e.V, NoneDead, func(_, _ int32) { sup[id]++ })
	}
	return sup
}

// LocalCounts returns, for each vertex, the number of triangles through it.
// Used by the clustering-coefficient metric.
func LocalCounts(g *graph.Graph) []int64 {
	counts := make([]int64, g.NumVertices())
	ForEach(g, func(e1, e2, e3 int32) {
		// The three edges of a triangle cover its three vertices twice each;
		// identify the vertices from two of the edges.
		a := g.Edge(e1)
		b := g.Edge(e2)
		counts[a.U]++
		counts[a.V]++
		// The third vertex is the endpoint of e2 not shared with e1.
		var w uint32
		switch {
		case b.U != a.U && b.U != a.V:
			w = b.U
		default:
			w = b.V
		}
		counts[w]++
	})
	return counts
}
