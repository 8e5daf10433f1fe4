// Package dynamic maintains a truss decomposition under edge insertions
// and deletions without re-peeling the whole graph.
//
// The paper decomposes static snapshots; this package adds the online
// counterpart that the serving layer needs. It exploits the locality of
// truss numbers observed by Jakkula & Karypis (Streaming and Batch
// Algorithms for Truss Decomposition) and Huang et al.: a mutation can
// only change phi along triangle-connected chains rooted at the modified
// edges, and whether a chain propagates through an edge is decided by
// counts at exactly two levels of that edge's truss number. Update turns
// that into an exact algorithm:
//
//  1. Rebuild the CSR graph with graph.ApplyBatch (O(m) merge, no
//     re-sort) and carry old truss numbers across the edge-ID remap.
//  2. Seed the affected region with the inserted edges, their triangle
//     partners, and the surviving triangle partners of deleted edges,
//     then close it under promotion reachability: an edge f with truss
//     number p can rise only through a triangle whose other two edges
//     both reach p+1, and since a batch of b insertions raises any truss
//     number by at most b, "can reach p+1" is decidable from the old
//     numbers (region members bound by phi+b, inserted edges unbounded,
//     frozen edges by phi). Every edge whose number rises is in the
//     closure — a riser needs a support triangle carrying a risen or
//     inserted edge, else its old number was already higher.
//  3. Re-peel only the region, seeded from the surviving truss numbers:
//     edges outside the region are frozen at their old phi and
//     participate in triangle counts only while the peeling level is at
//     or below that phi (the k-level locality rule). The re-peel is PKT's
//     bulk-synchronous peel, which fans a phase out over Config.Workers
//     only once it holds 256 items.
//  4. Certify the frozen boundary against demotions: edge f with phi p is
//     safe iff it still has >= p-2 triangles whose other two edges sit at
//     phi >= p. Violated edges join the region and the peel repeats; the
//     loop converges because the region only grows. On termination every
//     set {phi >= k} is self-certifying (each member keeps >= k-2
//     triangles inside it), i.e. a k-truss, so no edge is over-assigned;
//     the promotion closure already guarantees none is under-assigned.
//  5. If the region exceeds a configurable fraction of m, fall back to
//     the full parallel decomposition (the PKT-style peeler): locality
//     has lost, recomputing is cheaper than chasing the fixpoint.
//
// Either path yields exactly the decomposition a fresh run would produce;
// the differential tests in this package and at the repository root hold
// Update to that bar after every batch.
package dynamic

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/triangle"
)

// Batch is one set of mutations applied atomically: deletions first, then
// insertions (an edge in both lists ends up present). Duplicates,
// self-loops, deletions of absent edges and insertions of present edges
// are all tolerated and ignored.
type Batch struct {
	Adds []graph.Edge
	Dels []graph.Edge
}

// Empty reports whether the batch carries no mutations at all.
func (b Batch) Empty() bool { return len(b.Adds) == 0 && len(b.Dels) == 0 }

// Config tunes Update. The zero value picks sensible defaults.
type Config struct {
	// MaxRegionFraction bounds the affected region: when the region grows
	// past this fraction of the new graph's edges, Update abandons
	// locality and recomputes from scratch (0 selects 0.25; values >= 1
	// never fall back).
	MaxRegionFraction float64
	// Workers is handed to the parallel peeler on the fallback path and
	// bounds the goroutines of the region re-peel (0 = GOMAXPROCS).
	Workers int
}

func (c Config) maxRegionFraction() float64 {
	if c.MaxRegionFraction <= 0 {
		return 0.25
	}
	return c.MaxRegionFraction
}

func (c Config) workers() int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

// Stats describes how an Update was carried out.
type Stats struct {
	// Region is the number of edges re-peeled (0 on the fallback path).
	Region int
	// Boundary is the number of frozen edges checked around the region.
	Boundary int
	// Expansions counts boundary-certification failures that grew the
	// region (0 means the first region was already closed).
	Expansions int
	// Changed is the number of edges whose truss number differs from the
	// value carried over, plus all inserted edges.
	Changed int
	// FellBack reports that the region limit was hit and the decomposition
	// was recomputed in full.
	FellBack bool
	// ParallelPeels counts region re-peels in which some phase ran on
	// more than one goroutine (a phase fans out only at 256 items, and
	// only when Workers > 1).
	ParallelPeels int
}

// Result is the maintained decomposition after one batch.
type Result struct {
	// G is the post-batch graph.
	G *graph.Graph
	// Phi[id] is the truss number of new-graph edge id — exactly what a
	// fresh decomposition of G would produce.
	Phi []int32
	// KMax is the maximum truss number over all edges.
	KMax int32
	// Remap translates edge IDs between the old and new graphs.
	Remap *graph.Remap
	// Changed lists new-graph edge IDs whose truss number is not carried
	// over unchanged from the old graph: every edge whose phi differs,
	// plus every inserted edge. Deleted edges are implicit in Remap.
	Changed []int32
	// Stats describes the work done.
	Stats Stats
}

// Update applies batch to the decomposition (g, phi) and returns the
// exact decomposition of the mutated graph. phi must be the truss numbers
// of g's edges (as produced by any of the engines); it is read, never
// modified. The context is polled between peeling stages and during the
// fallback recompute.
func Update(ctx context.Context, g *graph.Graph, phi []int32, batch Batch, cfg Config) (*Result, error) {
	if len(phi) != g.NumEdges() {
		return nil, fmt.Errorf("dynamic: phi has %d entries for a graph with %d edges", len(phi), g.NumEdges())
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g2, re := g.ApplyBatch(batch.Adds, batch.Dels)
	m2 := g2.NumEdges()

	// Carry surviving truss numbers across the remap; inserted edges start
	// at the universal lower bound 2 (they are re-peeled regardless).
	base := make([]int32, m2)
	for newID, oldID := range re.NewToOld {
		if oldID >= 0 {
			base[newID] = phi[oldID]
		} else {
			base[newID] = 2
		}
	}
	res := &Result{G: g2, Remap: re}
	if len(re.Added) == 0 && len(re.Deleted) == 0 {
		// The batch collapsed to a no-op: the old decomposition carries
		// over verbatim.
		res.Phi = base
		res.KMax = maxPhi(base)
		return res, nil
	}

	limit := int(cfg.maxRegionFraction() * float64(m2))

	// Seed the affected region: inserted edges, their triangle partners
	// (new triangles raise support), and the surviving partners of
	// deleted edges' triangles (destroyed triangles lower support).
	inR := make([]bool, m2)
	var region []int32
	grow := func(id int32) {
		if !inR[id] {
			inR[id] = true
			region = append(region, id)
		}
	}
	for _, id := range re.Added {
		grow(id)
		e := g2.Edge(id)
		triangle.ForEachOf(g2, e.U, e.V, func(a, b int32) {
			grow(a)
			grow(b)
		})
	}
	for _, oldID := range re.Deleted {
		e := g.Edge(oldID)
		triangle.ForEachOf(g, e.U, e.V, func(a, b int32) {
			if na := re.OldToNew[a]; na >= 0 {
				grow(na)
			}
			if nb := re.OldToNew[b]; nb >= 0 {
				grow(nb)
			}
		})
	}

	// Close the region under promotion reachability. ub(x) bounds the
	// truss number x can reach: a batch of nAdds insertions raises any
	// surviving edge's phi by at most nAdds (each single insertion raises
	// it by at most one, and deletions never raise it), while inserted
	// edges are unconstrained. Edge f can be promoted only if some
	// triangle gives it support at level base[f]+1 — both partners
	// reaching base[f]+1 — and at least one support triangle must carry a
	// risen or inserted partner (otherwise f's old number was already
	// base[f]+1, by the maximality of the old decomposition). Risers form
	// chains rooted at the inserted edges, so scanning every region
	// edge's triangles, admitting any third edge whose partners' bounds
	// clear its base[f]+1, and rescanning from each admitted edge reaches
	// them all.
	nAdds := int64(len(re.Added))
	ub := func(x int32) int64 {
		if re.NewToOld[x] < 0 {
			return int64(^uint32(0)) // inserted: no useful bound
		}
		return int64(base[x]) + nAdds
	}
	if nAdds > 0 {
		for qi := 0; qi < len(region); qi++ { // region grows while we scan it
			x := region[qi]
			xe := g2.Edge(x)
			triangle.ForEachOf(g2, xe.U, xe.V, func(f, z int32) {
				if !inR[f] && ub(x) > int64(base[f]) && ub(z) > int64(base[f]) {
					grow(f)
				}
				if !inR[z] && ub(x) > int64(base[z]) && ub(f) > int64(base[z]) {
					grow(z)
				}
			})
			if len(region) > limit {
				return fallback(ctx, g2, re, base, cfg, res)
			}
		}
	}

	phiNew := make([]int32, m2)
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if len(region) > limit {
			return fallback(ctx, g2, re, base, cfg, res)
		}
		boundary, fanned, err := peelRegion(ctx, g2, base, inR, region, phiNew, cfg.workers())
		if err != nil {
			return nil, err
		}
		if fanned {
			res.Stats.ParallelPeels++
		}
		res.Stats.Boundary = len(boundary)
		violated := checkBoundary(g2, base, inR, boundary, phiNew)
		if len(violated) == 0 {
			break
		}
		for _, f := range violated {
			grow(f)
		}
		res.Stats.Expansions++
	}

	res.Phi = base
	for _, e := range region {
		if phiNew[e] != base[e] || re.NewToOld[e] < 0 {
			res.Changed = append(res.Changed, e)
		}
		base[e] = phiNew[e]
	}
	res.KMax = maxPhi(res.Phi)
	res.Stats.Region = len(region)
	res.Stats.Changed = len(res.Changed)
	return res, nil
}

// fallback recomputes the decomposition of g2 from scratch with the
// parallel peeler and reports the delta against the carried-over values.
func fallback(ctx context.Context, g2 *graph.Graph, re *graph.Remap, base []int32, cfg Config, res *Result) (*Result, error) {
	full, err := core.DecomposeParallelCtx(ctx, g2, cfg.Workers, core.Hooks{})
	if err != nil {
		return nil, err
	}
	res.Phi = full.Phi
	res.KMax = full.KMax
	for id := range res.Phi {
		if res.Phi[id] != base[id] || re.NewToOld[id] < 0 {
			res.Changed = append(res.Changed, int32(id))
		}
	}
	res.Stats.FellBack = true
	res.Stats.Changed = len(res.Changed)
	return res, nil
}

// maxPhi returns the maximum entry of phi (0 for an empty slice).
func maxPhi(phi []int32) int32 {
	var k int32
	for _, p := range phi {
		if p > k {
			k = p
		}
	}
	return k
}

// Region-peel lifecycle, one byte per region edge. Frozen (non-region)
// edges never carry a state: their presence at stage k is decided by
// base[f] >= k alone.
const (
	rpAlive uint8 = iota
	rpFrontier
	rpDead
)

const (
	// rpSerialCutoff keeps a phase with fewer items on the calling
	// goroutine: below it, fan-out costs more than it saves. The region of
	// a single mutation (a few edges) therefore never leaves the caller.
	rpSerialCutoff = 256
	// rpChunk is the number of items a worker claims at a time.
	rpChunk = 64
)

// peelRegion re-peels the region edges against a frozen boundary and
// writes their exact truss numbers into phiNew (valid at region indexes
// only). A frozen edge f participates in level-k triangle counts while
// base[f] >= k — i.e. exactly while f belongs to T_k under the assumption
// that its truss number did not change; checkBoundary certifies that
// assumption afterwards. It returns the frozen edges that share a
// triangle with the region (the certification set), and whether any
// phase ran on more than one goroutine.
//
// The peel is the bulk-synchronous PKT lifecycle of internal/core moved
// onto region edges. Per stage k it retires the boundary edges frozen at
// k-1, collects the frontier (alive region edges whose count fell below
// k-2), and peels it in sub-rounds with atomic count decrements under
// PKT's charging discipline: a triangle dies in the sub-round its first
// frontier edge dies; one frontier edge decrements both surviving
// partners, two co-frontier edges let the smaller ID charge the lone
// survivor, three charge nothing. Each dying triangle therefore
// decrements each survivor exactly once, so the stage-k death set, and
// hence phiNew, is the same for every worker count and schedule. Stages
// advance one k at a time: boundary retirements happen at every level,
// so there is no empty-level jump.
func peelRegion(ctx context.Context, g2 *graph.Graph, base []int32, inR []bool, region, phiNew []int32, workers int) ([]int32, bool, error) {
	m2 := g2.NumEdges()
	// cnt[e] is region edge e's live triangle count. The lifecycle never
	// reads the slots of frozen edges, so the count phase claims boundary
	// edges there (CAS 0 -> 1): each lands in exactly one worker's buffer.
	cnt := make([]int32, m2)
	// state changes only at barriers, or in the frontier scan by the one
	// worker that owns the edge, so workers read it without atomics.
	state := make([]uint8, m2)
	bufs := make([][]int32, workers) // per-worker output, drained at each barrier
	fanned := false

	// fanOut runs fn(w, lo, hi) over [0, n) with workers claiming chunks
	// of rpChunk items; w names the claiming worker's buffer. A small
	// phase runs whole on the calling goroutine as worker 0.
	fanOut := func(n int, fn func(w, lo, hi int)) {
		if n < rpSerialCutoff || workers <= 1 {
			fn(0, 0, n)
			return
		}
		fanned = true
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < min(workers, (n+rpChunk-1)/rpChunk); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for lo := int(next.Add(rpChunk) - rpChunk); lo < n; lo = int(next.Add(rpChunk) - rpChunk) {
					fn(w, lo, min(lo+rpChunk, n))
				}
			}()
		}
		wg.Wait()
	}
	// drain appends every worker's buffer to dst and empties them.
	drain := func(dst []int32) []int32 {
		for w := range bufs {
			dst = append(dst, bufs[w]...)
			bufs[w] = bufs[w][:0]
		}
		return dst
	}

	// Initial counts at level 3: every g2 triangle is present (T_2 is the
	// whole graph). Boundary edges are collected along the way.
	fanOut(len(region), func(w, lo, hi int) {
		for _, e := range region[lo:hi] {
			ed := g2.Edge(e)
			c := int32(0)
			triangle.ForEachOf(g2, ed.U, ed.V, func(a, b int32) {
				c++
				if !inR[a] && atomic.CompareAndSwapInt32(&cnt[a], 0, 1) {
					bufs[w] = append(bufs[w], a)
				}
				if !inR[b] && atomic.CompareAndSwapInt32(&cnt[b], 0, 1) {
					bufs[w] = append(bufs[w], b)
				}
			})
			cnt[e] = c
		}
	})
	boundary := drain(nil)

	// Bucket boundary edges by the level at which they leave the truss
	// hierarchy: f is present for T_k peeling while base[f] >= k, so it
	// retires at stage base[f]+1.
	retire := map[int32][]int32{}
	for _, f := range boundary {
		retire[base[f]] = append(retire[base[f]], f)
	}

	// decRetire handles one region partner x of a triangle (f, x, y)
	// whose boundary edge f retires at stage k: x's count drops iff the
	// triangle was still standing and f is the partner charged with its
	// demise.
	decRetire := func(f, x, y, k int32) {
		if !inR[x] || state[x] == rpDead {
			return
		}
		if inR[y] {
			if state[y] == rpDead {
				return // triangle already gone
			}
		} else {
			if base[y] < k-1 {
				return // triangle already gone
			}
			if base[y] == k-1 && f > y {
				return // y retires in the same stage; the smaller ID charges
			}
		}
		atomic.AddInt32(&cnt[x], -1)
	}

	// peel removes frontier edge e at stage k, assigning phi k-1. Every
	// alive edge enters a sub-round with a count of at least k-2, and
	// exactly one decrement takes it from k-2 to k-3: that decrement alone
	// spills it into buf, the next sub-round's frontier.
	peel := func(e, k int32, buf *[]int32) {
		phiNew[e] = k - 1
		present := func(x int32) bool {
			if inR[x] {
				return state[x] != rpDead
			}
			return base[x] >= k
		}
		frontier := func(x int32) bool { return inR[x] && state[x] == rpFrontier }
		dec := func(x int32) {
			if inR[x] && atomic.AddInt32(&cnt[x], -1) == k-3 {
				*buf = append(*buf, x)
			}
		}
		ed := g2.Edge(e)
		triangle.ForEachOf(g2, ed.U, ed.V, func(a, b int32) {
			if !present(a) || !present(b) {
				return
			}
			aF, bF := frontier(a), frontier(b)
			switch {
			case !aF && !bF:
				dec(a)
				dec(b)
			case aF && !bF:
				if e < a {
					dec(b)
				}
			case bF && !aF:
				if e < b {
					dec(a)
				}
				// default: all three dying; no survivor to charge.
			}
		})
	}

	alive := len(region)
	var cur []int32
	for k := int32(3); alive > 0; k++ {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		// Retire boundary edges frozen at k-1: they were in T_{k-1} but
		// are not in T_k. Each triangle they carried decrements its
		// surviving region partners exactly once.
		rs := retire[k-1]
		fanOut(len(rs), func(_, lo, hi int) {
			for _, f := range rs[lo:hi] {
				fd := g2.Edge(f)
				triangle.ForEachOf(g2, fd.U, fd.V, func(a, b int32) {
					decRetire(f, a, b, k)
					decRetire(f, b, a, k)
				})
			}
		})
		// Collect the stage frontier: alive region edges whose support
		// fell below k-2 are not in T_k.
		fanOut(len(region), func(w, lo, hi int) {
			for _, e := range region[lo:hi] {
				if state[e] == rpAlive && cnt[e] < k-2 {
					state[e] = rpFrontier
					bufs[w] = append(bufs[w], e)
				}
			}
		})
		cur = drain(cur[:0])
		// Sub-rounds: peel the frontier; at the barrier it turns dead and
		// the spilled edges become the next frontier.
		for len(cur) > 0 {
			fanOut(len(cur), func(w, lo, hi int) {
				for _, e := range cur[lo:hi] {
					peel(e, k, &bufs[w])
				}
			})
			alive -= len(cur)
			for _, e := range cur {
				state[e] = rpDead
			}
			cur = drain(cur[:0])
			for _, e := range cur {
				state[e] = rpFrontier
			}
		}
	}
	return boundary, fanned, nil
}

// checkBoundary certifies the frozen edges against the candidate
// assignment (phiNew inside the region, base outside). By the two-level
// fixpoint characterization of truss numbers, phi(f) = p is undisturbed
// iff f keeps at least p-2 triangles whose other edges both sit at
// phi >= p, and fewer than p-1 triangles at phi >= p+1 (the old
// assignment satisfied both by exactness, so only changed counts can
// violate them). Violated edges must join the region.
func checkBoundary(g2 *graph.Graph, base []int32, inR []bool, boundary []int32, phiNew []int32) []int32 {
	phiOf := func(x int32) int32 {
		if inR[x] {
			return phiNew[x]
		}
		return base[x]
	}
	var violated []int32
	for _, f := range boundary {
		p := base[f]
		var atP, aboveP int32
		fd := g2.Edge(f)
		triangle.ForEachOf(g2, fd.U, fd.V, func(a, b int32) {
			mn := phiOf(a)
			if pb := phiOf(b); pb < mn {
				mn = pb
			}
			if mn >= p {
				atP++
			}
			if mn >= p+1 {
				aboveP++
			}
		})
		if atP < p-2 || aboveP >= p-1 {
			violated = append(violated, f)
		}
	}
	return violated
}
