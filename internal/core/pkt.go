package core

import (
	"context"
	"math"
	"runtime"
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

// Edge lifecycle of the PKT state machine. Within one sub-round the dead
// set and the frontier set are frozen (transitions into them commit only
// at the barrier), which is what makes the workers' unsynchronized state
// reads safe.
const (
	pktAlive     = int32(0) // support above the peeling threshold, so far
	pktScheduled = int32(1) // crossed the threshold mid-round; next frontier
	pktFrontier  = int32(2) // dying in the current sub-round
	pktDead      = int32(3) // peeled; phi assigned
)

// pktSerialCutoff is the frontier size below which a sub-round runs on the
// coordinating goroutine: dispatching goroutines costs more than peeling a
// handful of edges.
const pktSerialCutoff = 256

// pktScanCutoff is the edge count below which frontier collection scans
// serially for the same reason.
const pktScanCutoff = 1 << 14

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
//     under the charging discipline below, and spills edges that cross
//     the threshold into a per-worker buffer — no shared append, no lock.
//  3. Barrier: the frontier commits to dead, the spill buffers become the
//     next frontier; when the cascade dries up the level is done.
//
// Charging discipline: a triangle dies in the sub-round where its first
// frontier edge dies. If one frontier edge kills it, that edge decrements
// both partners; if two frontier edges share it, the lower edge ID
// decrements the lone survivor; if all three die together nothing is
// decremented. Each dying triangle therefore decrements each surviving
// edge exactly once, so supports never double-decrement — the invariant
// that makes the answers exactly Decompose's.
func DecomposeParallelCtx(ctx context.Context, g *graph.Graph, workers int, h Hooks) (*Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	m := g.NumEdges()
	if m == 0 || workers == 1 {
		sup := triangle.Supports(g)
		return decomposePeel(ctx, g, sup, false, h)
	}

	res := &Result{G: g, Phi: make([]int32, m)}
	stats := &PKTStats{Workers: workers}
	res.PKT = stats

	// Degree-ordered CSR once, shared by support initialization; the
	// closing-edge hash once, shared by every peeling round.
	o := graph.BuildOrientedParallel(g, workers)
	supInit := triangle.SupportsOriented(o, workers)
	kern := triangle.NewKernel(g)

	sup := make([]atomic.Int32, m)
	for i, s := range supInit {
		sup[i].Store(s)
	}
	state := make([]atomic.Int32, m)

	dead := func(x int32) bool { return state[x].Load() == pktDead }

	// processEdge peels one frontier edge at level k, spilling edges that
	// cross the threshold into buf.
	processEdge := func(e int32, k int32, buf *[]int32) {
		res.Phi[e] = k
		ed := g.Edge(e)
		dec := func(x int32) {
			if sup[x].Add(-1) <= k-2 && state[x].CompareAndSwap(pktAlive, pktScheduled) {
				*buf = append(*buf, x)
			}
		}
		kern.ForEachLive(ed.U, ed.V, dead, func(p, q int32) {
			pin := state[p].Load() == pktFrontier
			qin := state[q].Load() == pktFrontier
			switch {
			case !pin && !qin:
				dec(p)
				dec(q)
			case pin && !qin:
				// Two frontier edges share the triangle; the smaller ID
				// charges the survivor.
				if e < p {
					dec(q)
				}
			case !pin && qin:
				if e < q {
					dec(p)
				}
				// default: all three dying; no survivor to charge.
			}
		})
	}

	// Per-worker reusable buffers: spill for mid-round threshold
	// crossings, scan for frontier collection.
	spill := make([][]int32, workers)
	scanBuf := make([][]int32, workers)
	scanMin := make([]int32, workers)

	// collect gathers the level-k frontier into cur and returns it with
	// the minimum support among surviving alive edges (MaxInt32 if none).
	collect := func(k int32, cur []int32) ([]int32, int32) {
		cur = cur[:0]
		scan := func(w int, lo, hi int32) {
			buf := scanBuf[w][:0]
			localMin := int32(math.MaxInt32)
			for e := lo; e < hi; e++ {
				if state[e].Load() != pktAlive {
					continue
				}
				if s := sup[e].Load(); s <= k-2 {
					state[e].Store(pktFrontier)
					buf = append(buf, e)
				} else if s < localMin {
					localMin = s
				}
			}
			scanBuf[w] = buf
			scanMin[w] = localMin
		}
		if m < pktScanCutoff {
			scan(0, 0, int32(m))
			return append(cur, scanBuf[0]...), scanMin[0]
		}
		var wg sync.WaitGroup
		chunk := int32((m + workers - 1) / workers)
		for w := 0; w < workers; w++ {
			lo := int32(w) * chunk
			hi := lo + chunk
			if hi > int32(m) {
				hi = int32(m)
			}
			if lo >= hi {
				scanBuf[w] = scanBuf[w][:0]
				scanMin[w] = math.MaxInt32
				continue
			}
			wg.Add(1)
			go func(w int, lo, hi int32) {
				defer wg.Done()
				scan(w, lo, hi)
			}(w, lo, hi)
		}
		wg.Wait()
		minSup := int32(math.MaxInt32)
		for w := 0; w < workers; w++ {
			cur = append(cur, scanBuf[w]...)
			if scanMin[w] < minSup {
				minSup = scanMin[w]
			}
		}
		return cur, minSup
	}

	done := ctx.Done()
	remaining := m
	k := int32(2)
	var cur, next []int32
	for remaining > 0 {
		if cancelled(done) {
			return nil, ctx.Err()
		}
		var minSup int32
		cur, minSup = collect(k, cur)
		if len(cur) == 0 {
			// Nothing peels at k: jump straight to the next populated
			// level (minSup > k-2 here, so this always advances).
			k = minSup + 2
			continue
		}
		if h.OnLevel != nil {
			h.OnLevel(k)
		}
		stats.Levels++
		for len(cur) > 0 {
			if cancelled(done) {
				return nil, ctx.Err()
			}
			stats.Rounds++
			stats.FrontierEdges += len(cur)
			if len(cur) > stats.PeakFrontier {
				stats.PeakFrontier = len(cur)
			}
			if h.OnRound != nil {
				h.OnRound(k, len(cur))
			}
			if len(cur) < pktSerialCutoff {
				buf := spill[0][:0]
				for _, e := range cur {
					processEdge(e, k, &buf)
				}
				spill[0] = buf
				for w := 1; w < workers; w++ {
					spill[w] = spill[w][:0]
				}
			} else {
				var idx atomic.Int64
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						buf := spill[w][:0]
						const chunk = 64
						for {
							lo := int(idx.Add(chunk)) - chunk
							if lo >= len(cur) {
								break
							}
							hi := lo + chunk
							if hi > len(cur) {
								hi = len(cur)
							}
							for _, e := range cur[lo:hi] {
								processEdge(e, k, &buf)
							}
						}
						spill[w] = buf
					}(w)
				}
				wg.Wait()
			}
			remaining -= len(cur)
			// Barrier: the frontier dies, spilled edges become the next
			// frontier.
			for _, e := range cur {
				state[e].Store(pktDead)
			}
			next = next[:0]
			for w := 0; w < workers; w++ {
				next = append(next, spill[w]...)
			}
			for _, e := range next {
				state[e].Store(pktFrontier)
			}
			cur, next = next, cur
		}
		if remaining > 0 {
			k++
		}
	}
	res.KMax = k
	stats.MergeDispatch, stats.ProbeDispatch = kern.Dispatches()
	return res, nil
}
