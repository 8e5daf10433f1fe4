package triangle

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// Chunk is the default number of ranks per unit of work handed to a
// ForEachChunked worker.
const Chunk = 256

// SupportsOriented computes sup(e) from a prebuilt degree-ordered view,
// so callers that already paid for the view (the PKT core) don't build it
// twice. workers <= 0 selects GOMAXPROCS; 1 runs serially without atomics.
func SupportsOriented(o *graph.Oriented, workers int) []int32 {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	m := len(o.EID)
	sup := make([]int32, m)
	if m == 0 {
		return sup
	}
	if workers == 1 {
		ForEachOriented(o, func(e1, e2, e3 int32) {
			sup[e1]++
			sup[e2]++
			sup[e3]++
		})
		return sup
	}
	ForEachChunked(o, Chunk, workers, func(_, e1, e2, e3 int32) {
		atomic.AddInt32(&sup[e1], 1)
		atomic.AddInt32(&sup[e2], 1)
		atomic.AddInt32(&sup[e3], 1)
	})
	return sup
}

// ForEachChunked lists every triangle of o exactly once, like
// ForEachOriented, with the rank space cut into fixed chunks of size
// ranks: chunk c covers the triangles rooted at ranks [c*size,
// (c+1)*size), and fn receives c with each of them. Up to workers
// goroutines claim chunks in ascending order; one goroutine runs a chunk
// start to finish in ForEachOriented's order, so state kept per chunk
// needs no synchronization, and concatenating the chunks' triangles in
// chunk order gives the serial order for any worker count. Chunks follow
// ascending rank, so the heaviest out-lists (highest ranks) land in the
// last chunks, where the shared counter balances them across whichever
// workers are free. workers <= 1 runs every chunk on the calling
// goroutine.
func ForEachChunked(o *graph.Oriented, size int32, workers int, fn func(c, e1, e2, e3 int32)) {
	n := int32(len(o.Vert))
	chunks := (n + size - 1) / size
	run := func(c int32) {
		lo := c * size
		hi := min(lo+size, n)
		forEachOrientedRange(o, lo, hi, func(e1, e2, e3 int32) { fn(c, e1, e2, e3) })
	}
	if workers <= 1 || chunks <= 1 {
		for c := int32(0); c < chunks; c++ {
			run(c)
		}
		return
	}
	var next atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < min(workers, int(chunks)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := next.Add(1) - 1; c < chunks; c = next.Add(1) - 1 {
				run(c)
			}
		}()
	}
	wg.Wait()
}
