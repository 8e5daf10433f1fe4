package core

import (
	"context"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/triangle"
)

// PKTStats describes the shape of one bulk-synchronous PKT run, for the
// observability layer and for tests that assert the machinery actually
// engaged (rounds > 0, both kernel strategies dispatched, ...).
type PKTStats struct {
	// Workers is the resolved worker count the run used.
	Workers int
	// Levels counts distinct populated peeling levels.
	Levels int
	// Rounds counts bulk-synchronous sub-rounds (barriers).
	Rounds int
	// FrontierEdges is the total number of edges peeled through frontiers
	// (equals m on a completed run).
	FrontierEdges int
	// PeakFrontier is the largest single sub-round frontier.
	PeakFrontier int
	// MergeDispatch and ProbeDispatch count the adaptive kernel's per-edge
	// strategy choices (merge-scan vs hash probe).
	MergeDispatch int64
	ProbeDispatch int64
}

// Edge lifecycle of the PKT peel, one byte per edge. It changes only at
// barriers, or in the frontier scan by the one worker that owns the edge,
// so within a sub-round the frontier and dead sets are frozen and workers
// read the byte without atomics.
const (
	pktFrozen   uint8 = iota // outside a restricted run's region: leaves at its given phi
	pktAlive                 // support above the peeling threshold, so far
	pktFrontier              // dying in the current sub-round
	pktDead                  // peeled; phi assigned
)

const (
	// pktSerialCutoff keeps a phase with fewer items on the calling
	// goroutine: below it, fan-out costs more than it saves, so the region
	// of a single mutation never leaves its caller.
	pktSerialCutoff = 256
	// A fanned phase is cut into about pktClaims chunks per worker of at
	// least pktMinChunk items: fine enough that the last chunk balances
	// the load, coarse enough that a full-graph frontier scan makes a few
	// hundred claims per level rather than one per 64 edges.
	pktMinChunk = 64
	pktClaims   = 64
)

// DecomposeParallel computes the same truss decomposition as Decompose on
// multiple cores with the bulk-synchronous parallel peeling algorithm of
// Kabir & Madduri's PKT. It is the engine behind truss.EngineParallel.
// workers <= 0 selects GOMAXPROCS; workers == 1 falls back to the serial
// bin-sort peel (same answers, no atomics).
func DecomposeParallel(g *graph.Graph, workers int) *Result {
	r, _ := DecomposeParallelCtx(context.Background(), g, workers, Hooks{})
	return r
}

// DecomposeParallelCtx is DecomposeParallel with cancellation and
// observation. The context is checked at every barrier (between
// sub-rounds and between levels); hooks see each populated level and each
// sub-round. The only possible error is ctx.Err().
//
// Structure per level k (support threshold k-2):
//
//  1. Frontier collection: a chunked parallel scan marks every alive edge
//     at or below the threshold as the frontier, and tracks the minimum
//     surviving support so empty levels are jumped over in one step.
//  2. Sub-rounds: workers peel the frontier in dynamically balanced
//     chunks. Each worker enumerates a dying edge's surviving triangles
//     through the adaptive kernel (merge-scan or hash probe by degree
//     skew), atomically decrements the supports of the two partner edges
//     under the charging discipline of peelEdge, and spills each edge
//     whose support reaches the threshold into a per-worker buffer — no
//     shared append, no lock.
//  3. Barrier: the frontier commits to dead, the spill buffers become the
//     next frontier; when the cascade dries up the level is done.
//
// PeelRegion is the same peel restricted to a region of edges.
func DecomposeParallelCtx(ctx context.Context, g *graph.Graph, workers int, h Hooks) (*Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	m := g.NumEdges()
	if m == 0 || workers == 1 {
		sup := triangle.Supports(g)
		return decomposePeel(ctx, g, sup, false, h)
	}
	// Degree-ordered CSR once, for support initialization; the
	// closing-edge hash once, shared by every peeling round.
	o := graph.BuildOrientedParallel(g, workers)
	p := newPKT(g, triangle.SupportsOriented(o, workers), triangle.NewKernel(g), make([]int32, m), workers)
	for e := range p.state {
		p.state[e] = pktAlive
	}
	k, err := p.run(ctx, nil, nil, h)
	if err != nil {
		return nil, err
	}
	p.stats.MergeDispatch, p.stats.ProbeDispatch = p.kern.Dispatches()
	return &Result{G: g, Phi: p.phi, KMax: k, PKT: &p.stats}, nil
}

// PeelRegion is the restricted PKT run behind dynamic maintenance. The
// region edges (distinct IDs) peel by support exactly as in
// DecomposeParallelCtx, while every other edge is frozen at its truss
// number in phi. A frozen edge that shares a triangle with the region, a
// boundary edge, stays in the graph up to the level of its phi and leaves
// with that level's first frontier, charging its triangles like any
// frontier edge; it keeps its phi. On return the region's entries of phi
// hold the peeled truss numbers, which are exact whenever the frozen
// numbers are, and the other entries are unchanged.
//
// PeelRegion returns the boundary edges and whether some phase ran on
// more than one goroutine. workers <= 0 selects GOMAXPROCS. Closing edges
// are found with Graph.EdgeID rather than an m-sized hash: a run allocates
// 5 bytes per edge of g (a count and a lifecycle byte) and otherwise works
// in the triangles of the region. The context is checked as in
// DecomposeParallelCtx; the only possible error is ctx.Err().
func PeelRegion(ctx context.Context, g *graph.Graph, phi, region []int32, workers int, h Hooks) ([]int32, bool, error) {
	if len(region) == 0 {
		return nil, false, nil
	}
	p := newPKT(g, make([]int32, g.NumEdges()), triangle.NewSearchKernel(g), phi, workers)
	for _, e := range region {
		p.state[e] = pktAlive
	}
	// Initial counts: every triangle of g is present at level 2. Boundary
	// edges are claimed along the way in their count slots, which the peel
	// never reads (CAS 0 -> 1), so each lands in exactly one buffer.
	p.fanOut(len(region), func(w, lo, hi int) {
		buf := p.bufs[w]
		for _, e := range region[lo:hi] {
			ed := g.Edge(e)
			c := int32(0)
			p.kern.ForEachLive(ed.U, ed.V, p.dead, func(a, b int32) {
				c++
				for _, f := range [2]int32{a, b} {
					if p.state[f] == pktFrozen && atomic.CompareAndSwapInt32(&p.cnt[f], 0, 1) {
						buf = append(buf, f)
					}
				}
			})
			p.cnt[e] = c
		}
		p.bufs[w] = buf
	})
	boundary := byLevel(p.drain(nil), phi)
	if _, err := p.run(ctx, region, boundary, h); err != nil {
		return nil, false, err
	}
	return boundary, p.fanned, nil
}

// pkt is the state of one PKT peel: a full run over every edge of g, or a
// restricted run over a region against frozen edges.
type pkt struct {
	g       *graph.Graph
	kern    *triangle.Kernel
	workers int
	// cnt is each peeling edge's live triangle count. A full run adopts
	// SupportsOriented's []int32 as is, so sub-rounds change it through
	// atomic.AddInt32 rather than an atomic type; plain reads happen only
	// between phases, after the workers have joined.
	cnt   []int32
	state []uint8 // lifecycle: pktFrozen, pktAlive, pktFrontier or pktDead
	phi   []int32
	dead  func(int32) bool
	// bufs holds each worker's output of a phase, drained at its barrier.
	// Workers append to a local copy and store it back once per chunk:
	// neighbouring slice headers share a cache line.
	bufs   [][]int32
	mins   []int32 // per-worker least surviving count of a frontier scan
	fanned bool    // some phase ran on more than one goroutine
	stats  PKTStats
}

func newPKT(g *graph.Graph, cnt []int32, kern *triangle.Kernel, phi []int32, workers int) *pkt {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &pkt{
		g:       g,
		kern:    kern,
		workers: workers,
		cnt:     cnt,
		state:   make([]uint8, g.NumEdges()),
		phi:     phi,
		bufs:    make([][]int32, workers),
		mins:    make([]int32, workers),
		stats:   PKTStats{Workers: workers},
	}
	p.dead = func(x int32) bool { return p.state[x] == pktDead }
	return p
}

// run peels the region, or every edge when region is nil, level by level
// from k = 2 and returns the last level peeled. boundary lists the frozen
// edges that share a triangle with the region, ordered by phi: each joins
// the first frontier of level phi[f]. An empty level is jumped over to the
// least surviving count + 2, but never past the next boundary level.
func (p *pkt) run(ctx context.Context, region, boundary []int32, h Hooks) (int32, error) {
	n := len(region)
	if region == nil {
		n = len(p.state)
	}
	done := ctx.Done()
	remaining := n // region edges not yet peeled
	k := int32(2)
	var cur []int32
	for remaining > 0 {
		if cancelled(done) {
			return 0, ctx.Err()
		}
		minSup := p.collect(k, region, n)
		cur = p.drain(cur[:0])
		nb := 0 // boundary edges in the frontier
		for nb < len(boundary) && p.phi[boundary[nb]] == k {
			p.state[boundary[nb]] = pktFrontier
			nb++
		}
		cur = append(cur, boundary[:nb]...)
		boundary = boundary[nb:]
		if len(cur) == 0 {
			// minSup > k-2 here, and every pending boundary level is above
			// k, so this always advances.
			k = minSup + 2
			if len(boundary) > 0 {
				k = min(k, p.phi[boundary[0]])
			}
			continue
		}
		if h.OnLevel != nil {
			h.OnLevel(k)
		}
		p.stats.Levels++
		for len(cur) > 0 {
			if cancelled(done) {
				return 0, ctx.Err()
			}
			p.stats.Rounds++
			p.stats.FrontierEdges += len(cur)
			p.stats.PeakFrontier = max(p.stats.PeakFrontier, len(cur))
			if h.OnRound != nil {
				h.OnRound(k, len(cur))
			}
			p.fanOut(len(cur), func(w, lo, hi int) {
				buf := p.bufs[w]
				for _, e := range cur[lo:hi] {
					p.peelEdge(e, k, &buf)
				}
				p.bufs[w] = buf
			})
			remaining -= len(cur) - nb
			nb = 0
			// Barrier: the frontier dies, spilled edges become the next
			// frontier.
			for _, e := range cur {
				p.state[e] = pktDead
			}
			cur = p.drain(cur[:0])
			for _, e := range cur {
				p.state[e] = pktFrontier
			}
		}
		if remaining > 0 {
			k++
		}
	}
	return k, nil
}

// collect moves every alive region edge whose count is at most k-2 into
// the workers' buffers as the level's frontier, and returns the least
// count of the alive edges that stay (MaxInt32 if none does).
func (p *pkt) collect(k int32, region []int32, n int) int32 {
	for w := range p.mins {
		p.mins[w] = math.MaxInt32
	}
	p.fanOut(n, func(w, lo, hi int) {
		buf, least := p.bufs[w], p.mins[w]
		for i := lo; i < hi; i++ {
			e := int32(i)
			if region != nil {
				e = region[i]
			}
			if p.state[e] != pktAlive {
				continue
			}
			if c := p.cnt[e]; c <= k-2 {
				p.state[e] = pktFrontier
				buf = append(buf, e)
			} else {
				least = min(least, c)
			}
		}
		p.bufs[w], p.mins[w] = buf, least
	})
	return slices.Min(p.mins)
}

// peelEdge removes frontier edge e at level k: it assigns phi k and
// charges each triangle that dies with e to the survivors. A triangle dies
// in the sub-round its first frontier edge dies. One frontier edge
// charges both partners; of two co-frontier edges the lower ID charges the
// lone survivor; three charge nothing. Each dying triangle thus decrements
// each survivor exactly once, so the death set of every level, and hence
// phi, is the same for every worker count and schedule.
func (p *pkt) peelEdge(e, k int32, buf *[]int32) {
	p.phi[e] = k
	ed := p.g.Edge(e)
	p.kern.ForEachLive(ed.U, ed.V, p.dead, func(a, b int32) {
		aF, bF := p.state[a] == pktFrontier, p.state[b] == pktFrontier
		switch {
		case !aF && !bF:
			p.charge(a, k, buf)
			p.charge(b, k, buf)
		case aF && !bF:
			if e < a {
				p.charge(b, k, buf)
			}
		case bF && !aF:
			if e < b {
				p.charge(a, k, buf)
			}
		}
	})
}

// charge decrements surviving edge x's count at level k. Every alive edge
// enters a level above the threshold k-2, so exactly one decrement takes
// its count from k-1 to k-2: that one spills x into buf, the next
// sub-round's frontier. Frozen edges carry no count and never spill.
func (p *pkt) charge(x, k int32, buf *[]int32) {
	if p.state[x] == pktAlive && atomic.AddInt32(&p.cnt[x], -1) == k-2 {
		*buf = append(*buf, x)
	}
}

// fanOut runs fn(w, lo, hi) over [0, n). A phase below pktSerialCutoff
// items, or any phase of a one-worker run, runs whole on the calling
// goroutine as worker 0. Otherwise up to p.workers goroutines, the caller
// among them, claim chunks in ascending order; w names the claiming
// worker's slot in bufs and mins.
func (p *pkt) fanOut(n int, fn func(w, lo, hi int)) {
	if n < pktSerialCutoff || p.workers == 1 {
		fn(0, 0, n)
		return
	}
	p.fanned = true
	chunk := max(pktMinChunk, n/(pktClaims*p.workers))
	var next atomic.Int64
	claim := func(w int) {
		for lo := int(next.Add(int64(chunk))) - chunk; lo < n; lo = int(next.Add(int64(chunk))) - chunk {
			fn(w, lo, min(lo+chunk, n))
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(p.workers, (n+chunk-1)/chunk); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			claim(w)
		}()
	}
	claim(0)
	wg.Wait()
}

// drain appends every worker's buffer to dst and empties them.
func (p *pkt) drain(dst []int32) []int32 {
	for w := range p.bufs {
		dst = append(dst, p.bufs[w]...)
		p.bufs[w] = p.bufs[w][:0]
	}
	return dst
}

// byLevel orders edges by phi with a counting sort, so that the boundary
// edges leaving at one level form one run.
func byLevel(edges, phi []int32) []int32 {
	var top int32
	for _, f := range edges {
		top = max(top, phi[f])
	}
	next := make([]int32, top+2)
	for _, f := range edges {
		next[phi[f]+1]++
	}
	for l := 1; l < len(next); l++ {
		next[l] += next[l-1]
	}
	out := make([]int32, len(edges))
	for _, f := range edges {
		out[next[phi[f]]] = f
		next[phi[f]]++
	}
	return out
}
