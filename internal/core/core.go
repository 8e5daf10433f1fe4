// Package core implements the paper's in-memory truss-decomposition
// algorithms: the improved TD-inmem+ (Algorithm 2, O(m^1.5) time and O(m+n)
// space, matching the triangle-listing lower bound) and Cohen's original
// TD-inmem (Algorithm 1), which the paper uses as its in-memory baseline.
// It also provides PKT, the bulk-synchronous parallel peel, with its run
// restricted to a region (PeelRegion) for incremental maintenance, the
// threshold Peeler reused by the external-memory algorithms (Procedures 5,
// 8, 9, 10), and naive reference implementations for testing. Every peel
// here lists a removed edge's triangles with triangle.Kernel; only
// Algorithm 1 runs the plain merge, as published.
//
// Terminology follows the paper: sup(e) is the number of triangles
// containing edge e; the k-truss T_k is the largest subgraph with every
// edge's support >= k-2 inside the subgraph; phi(e) (the truss number) is
// the largest k with e in T_k; the k-class Phi_k is {e : phi(e) = k}.
package core

import (
	"context"

	"repro/internal/graph"
	"repro/internal/triangle"
)

// Hooks observes a decomposition as it runs. The zero value observes
// nothing and costs nothing.
type Hooks struct {
	// OnLevel is invoked when peeling reaches a new level k (including the
	// initial level 2). It runs on the decomposing goroutine and must be
	// cheap.
	OnLevel func(k int32)
	// OnRound is invoked by the PKT peel, full or restricted
	// (PeelRegion), at the start of each bulk-synchronous sub-round with
	// the current level and frontier size. It runs on the coordinating
	// goroutine and must be cheap. Serial engines never call it.
	OnRound func(k int32, frontier int)
}

// ctxCheckMask throttles cancellation checks in the peeling loops: the
// context is polled once per (mask+1) removed edges, so cancellation costs
// one select per ~1k edges and nothing at all under context.Background().
const ctxCheckMask = 1023

// cancelled reports whether done (a context's Done channel, possibly nil)
// has fired.
func cancelled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// Result is a truss decomposition of a graph: the truss number of every
// edge plus derived views (classes and trusses).
type Result struct {
	// G is the decomposed graph.
	G *graph.Graph
	// Phi[id] is the truss number of edge id; always >= 2.
	Phi []int32
	// KMax is the maximum truss number over all edges (2 if the graph has
	// edges but no triangles; 0 for an edgeless graph).
	KMax int32
	// PKT holds the bulk-synchronous run's shape when the PKT engine
	// produced this result; nil for the serial engines (including PKT's
	// single-worker fallback).
	PKT *PKTStats
}

// Class returns the edge IDs of the k-class Phi_k, in increasing ID order.
func (r *Result) Class(k int32) []int32 {
	var out []int32
	for id, p := range r.Phi {
		if p == k {
			out = append(out, int32(id))
		}
	}
	return out
}

// ClassSizes returns |Phi_k| for k = 0..KMax (entries 0 and 1 are zero).
func (r *Result) ClassSizes() []int64 {
	sizes := make([]int64, r.KMax+1)
	for _, p := range r.Phi {
		sizes[p]++
	}
	return sizes
}

// TrussEdges returns the edge IDs of the k-truss T_k (all edges with
// phi >= k).
func (r *Result) TrussEdges(k int32) []int32 {
	var out []int32
	for id, p := range r.Phi {
		if p >= k {
			out = append(out, int32(id))
		}
	}
	return out
}

// Truss materializes the k-truss as a graph (vertex IDs preserved).
func (r *Result) Truss(k int32) *graph.Graph {
	return graph.EdgeInducedSubgraph(r.G, r.TrussEdges(k))
}

// MaxTruss returns the kmax-truss, the innermost non-empty truss.
func (r *Result) MaxTruss() *graph.Graph { return r.Truss(r.KMax) }

// ClassMap returns phi keyed by canonical edge, for cross-algorithm
// comparisons where edge IDs differ.
func (r *Result) ClassMap() map[uint64]int32 {
	m := make(map[uint64]int32, len(r.Phi))
	for id, p := range r.Phi {
		m[r.G.Edge(int32(id)).Key()] = p
	}
	return m
}

// Decompose runs the improved in-memory algorithm (Algorithm 2,
// TD-inmem+): supports are computed by oriented triangle counting, edges
// are bin-sorted by support, and the peeling loop lists each removed
// edge's triangles with triangle.Kernel. The kernel probes the closing edge
// from the lower-degree endpoint, or merges both lists only while the
// larger degree is under triangle.ProbeSkew times the smaller, so every
// edge costs O(min degree) steps and the total stays O(m^1.5). The probes
// binary-search the adjacency lists (NewSearchKernel): no m-sized hash
// table is built.
func Decompose(g *graph.Graph) *Result {
	r, _ := DecomposeCtx(context.Background(), g, Hooks{})
	return r
}

// DecomposeCtx is Decompose with cancellation and observation: the context
// is checked between peeling levels and every ~1k removed edges, and hooks
// (if set) see each level transition. The only possible error is ctx.Err().
func DecomposeCtx(ctx context.Context, g *graph.Graph, h Hooks) (*Result, error) {
	sup := triangle.Supports(g)
	return decomposePeel(ctx, g, sup, false, h)
}

// DecomposeBaseline runs Cohen's algorithm (Algorithm 1, TD-inmem) as
// published, with both of its Theta(sum of deg^2) components: Steps 2-3
// initialize sup(e) = |nb(u) ∩ nb(v)| by full intersection of both
// adjacency lists per edge (the paper notes this "can be made faster using
// the in-memory triangle counting algorithm" — i.e. Algorithm 1 itself does
// not), and Step 5 re-intersects both full lists for every removed edge.
// On graphs with high-degree hubs this is the bottleneck the paper's
// Table 3 measures; Decompose replaces both with O(m^1.5) machinery.
func DecomposeBaseline(g *graph.Graph) *Result {
	r, _ := DecomposeBaselineCtx(context.Background(), g, Hooks{})
	return r
}

// DecomposeBaselineCtx is DecomposeBaseline with cancellation and
// observation, mirroring DecomposeCtx.
func DecomposeBaselineCtx(ctx context.Context, g *graph.Graph, h Hooks) (*Result, error) {
	sup := triangle.SupportsNaive(g)
	return decomposePeel(ctx, g, sup, true, h)
}

// decomposePeel is the shared bin-sorted peeling loop. When fullMerge is
// true, triangle enumeration uses the Algorithm 1 strategy; otherwise the
// Algorithm 2 strategy.
func decomposePeel(ctx context.Context, g *graph.Graph, sup []int32, fullMerge bool, h Hooks) (*Result, error) {
	m := g.NumEdges()
	res := &Result{G: g, Phi: make([]int32, m)}
	if m == 0 {
		return res, nil
	}

	// Bin sort edge IDs by support (the sorted edge array A of the paper).
	maxSup := int32(0)
	for _, s := range sup {
		if s > maxSup {
			maxSup = s
		}
	}
	bin := make([]int32, maxSup+2)
	for _, s := range sup {
		bin[s]++
	}
	start := int32(0)
	for s := int32(0); s <= maxSup; s++ {
		cnt := bin[s]
		bin[s] = start
		start += cnt
	}
	bin[maxSup+1] = start
	arr := make([]int32, m) // edge IDs ordered by current support
	pos := make([]int32, m) // pos[e] = index of e in arr
	cursor := make([]int32, maxSup+1)
	copy(cursor, bin[:maxSup+1])
	for e := 0; e < m; e++ {
		p := cursor[sup[e]]
		arr[p] = int32(e)
		pos[e] = p
		cursor[sup[e]]++
	}

	removed := make([]bool, m)
	dead := func(e int32) bool { return removed[e] }
	kern := triangle.NewSearchKernel(g)

	// demote moves edge x one support bin down (x's support must exceed
	// the support of the edge currently being removed, so its bin start is
	// strictly right of the processing pointer).
	demote := func(x int32) {
		s := sup[x]
		ps := bin[s]
		px := pos[x]
		y := arr[ps]
		if y != x {
			arr[ps], arr[px] = x, y
			pos[x], pos[y] = ps, px
		}
		bin[s]++
		sup[x]--
	}

	done := ctx.Done()
	k := int32(2)
	if h.OnLevel != nil {
		h.OnLevel(k)
	}
	for i := 0; i < m; i++ {
		if i&ctxCheckMask == 0 && cancelled(done) {
			return nil, ctx.Err()
		}
		e := arr[i]
		if sup[e]+2 > k {
			k = sup[e] + 2
			if h.OnLevel != nil {
				h.OnLevel(k)
			}
			if cancelled(done) {
				return nil, ctx.Err()
			}
		}
		res.Phi[e] = k
		removed[e] = true
		se := sup[e]
		ed := g.Edge(e)
		u, v := ed.U, ed.V

		// visit processes one triangle (u,v,w): decrement the two partner
		// edges if still above the current peeling level.
		visit := func(euw, evw int32) {
			if sup[euw] > se {
				demote(euw)
			}
			if sup[evw] > se {
				demote(evw)
			}
		}

		if fullMerge {
			// Algorithm 1: full merge of both adjacency lists.
			triangle.ForEachMerge(g, u, v, dead, visit)
		} else {
			// Algorithm 2: the adaptive kernel, which probes the closing
			// edge from the lower-degree endpoint when degrees are skewed.
			kern.ForEachLive(u, v, dead, visit)
		}
	}
	res.KMax = k
	return res, nil
}
