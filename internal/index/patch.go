package index

import (
	"runtime"
	"slices"

	"repro/internal/dsu"
	"repro/internal/graph"
	"repro/internal/triangle"
)

// Patch derives the index of an updated decomposition from this one
// without rebuilding the parts the update provably did not touch. g, phi
// and kmax describe the post-batch decomposition (as produced by
// dynamic.Update), re is the edge-ID remap of the batch, and changed
// lists the new-graph IDs whose truss number was not carried over
// unchanged (every re-assigned edge plus every inserted one). The
// receiver is not modified; like Build, the result retains g by
// reference and copies phi.
//
// The per-edge permutation tables are always rebuilt — they are O(m) and
// index every edge ID, which the batch renumbered. The expensive state is
// the per-level community tables. Let kTouched be the highest truss
// number involved in the delta (old or new value of any changed, inserted
// or deleted edge). A triangle's minimum truss number can only have
// changed if one of its edges is in the delta, so every triangle at
// min-phi > kTouched — and with it the union-find snapshot of every level
// above kTouched — is untouched: those tables are translated through the
// remap (the remap preserves relative edge order, so grouping and
// tie-breaking survive verbatim). Only their edge IDs change: each class
// above kTouched keeps its size and ID order, hence every byPhi
// position, so those levels share the receiver's offsets and
// position-indexed community maps (copied when the receiver borrows a
// mapped file's arrays). Only levels 3..kTouched are
// re-componentized, and only from triangles at min-phi <= kTouched —
// enumerated around the edges of those low classes, never the whole
// graph — through the same sweep and snapshot as Build, seeded with the
// first untouched level's components and the ID-sorted T_{kTouched+1}.
// A delta that reaches kmax rebuilds every level as Build does, on
// GOMAXPROCS workers.
func (ix *TrussIndex) Patch(g *graph.Graph, phi []int32, kmax int32, re *graph.Remap, changed []int32) *TrussIndex {
	return ix.patch(g, phi, kmax, re, changed, runtime.GOMAXPROCS(0))
}

// patch is Patch with the worker count of a full rebuild made explicit.
func (ix *TrussIndex) patch(g *graph.Graph, phi []int32, kmax int32, re *graph.Remap, changed []int32, workers int) *TrussIndex {
	ix2 := &TrussIndex{
		g:    g,
		phi:  append([]int32(nil), phi...),
		kmax: kmax,
	}
	ix2.initArrays()
	ix2.levels = make([]level, kmax+1)
	if kmax < 3 {
		return ix2
	}

	kTouched := int32(2)
	for _, c := range changed {
		if phi[c] > kTouched {
			kTouched = phi[c]
		}
		if old := re.NewToOld[c]; old >= 0 && ix.phi[old] > kTouched {
			kTouched = ix.phi[old]
		}
	}
	for _, d := range re.Deleted {
		if ix.phi[d] > kTouched {
			kTouched = ix.phi[d]
		}
	}
	if kTouched >= kmax {
		// The delta reaches the top of the hierarchy: nothing to reuse.
		ix2.buildLevels(workers)
		return ix2
	}

	// Translate the untouched levels (kTouched+1 .. kmax). Every edge of
	// old T_k for k > kTouched survived the batch with its truss number
	// intact, so the community structure is identical modulo edge IDs,
	// and commOff and commIdx carry over as they are.
	for k := kTouched + 1; k <= kmax; k++ {
		old := &ix.levels[k]
		lv := level{
			edgeOrder: make([]int32, len(old.edgeOrder)),
			commOff:   old.commOff,
			commIdx:   old.commIdx,
		}
		if ix.borrowed {
			lv.commOff = slices.Clone(old.commOff)
			lv.commIdx = slices.Clone(old.commIdx)
		}
		for i, oldID := range old.edgeOrder {
			lv.edgeOrder[i] = re.OldToNew[oldID]
		}
		ix2.levels[k] = lv
	}
	if kTouched < 3 {
		// The delta stays in class 2, which has no community table.
		return ix2
	}

	// Re-componentize the touched levels, folding in the first untouched
	// level's components: T_{kTouched+1}'s connectivity summarizes every
	// triangle at min-phi > kTouched, so those triangles need not be
	// enumerated again.
	uf := dsu.New(len(phi))
	first := &ix2.levels[kTouched+1]
	for c := 0; c+1 < len(first.commOff); c++ {
		seg := first.edgeOrder[first.commOff[c]:first.commOff[c+1]]
		for i := 1; i < len(seg); i++ {
			uf.Union(seg[0], seg[i])
		}
	}

	// Triangles at min-phi in [3, kTouched] all have their minimum on an
	// edge of a touched class; enumerating around those edges finds each
	// such triangle at least once, and charging it to its smallest
	// minimum-phi edge counts it exactly once.
	buckets := make([][]int32, kTouched+1) // flattened (e1,e2,e3) triples per min-phi
	kern := triangle.NewSearchKernel(g)
	for i := ix2.cnt[kTouched+1]; i < ix2.cnt[3]; i++ {
		e := ix2.byPhi[i] // classes 3..kTouched: a byPhi segment
		ed := g.Edge(e)
		kern.ForEachLive(ed.U, ed.V, triangle.NoneDead, func(a, b int32) {
			mn := phi[e]
			if phi[a] < mn {
				mn = phi[a]
			}
			if phi[b] < mn {
				mn = phi[b]
			}
			charge := e
			if phi[a] == mn && a < charge {
				charge = a
			}
			if phi[b] == mn && b < charge {
				charge = b
			}
			if charge != e {
				return // counted when the charged edge is enumerated
			}
			buckets[mn] = append(buckets[mn], e, a, b)
		})
	}
	ids := make([]int32, 0, ix2.cnt[3])
	for id, p := range phi {
		if p > kTouched {
			ids = append(ids, int32(id))
		}
	}
	ix2.sweepLevels(uf, ids, buckets)
	return ix2
}
