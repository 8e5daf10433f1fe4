package graph

import (
	"runtime"
	"sort"
	"sync"
)

// Oriented is the degree-ordered CSR view of a Graph: every vertex gets a
// rank (ascending by degree, ties by vertex ID) and every edge is directed
// from its lower-rank endpoint to its higher-rank one. Adjacency lives in
// rank space — Off/Nbr/EID are indexed and valued by rank, with each
// out-list sorted ascending — so intersecting two out-lists is a linear
// merge of small sorted arrays, and every triangle is discovered exactly
// once at its lowest-rank vertex.
//
// Orienting by degree order bounds every out-degree by O(sqrt(m)) (the
// arboricity argument behind the O(m^1.5) triangle bound; see Burkhardt,
// Faber & Harris, "Bounds and algorithms for graph trusses"), which is what
// makes the layout the cheap substrate for both triangle counting and the
// PKT peeling core's support initialization.
type Oriented struct {
	// Rank maps vertex ID -> rank; lower rank means lower (degree, ID).
	Rank []int32
	// Vert maps rank -> vertex ID (the inverse permutation of Rank).
	Vert []uint32
	// Off delimits the out-list of rank r as Nbr[Off[r]:Off[r+1]];
	// len n+1, Off[n] == m.
	Off []int32
	// Nbr holds out-neighbor ranks, ascending within each out-list.
	Nbr []int32
	// EID holds the connecting edge's ID, parallel to Nbr.
	EID []int32
}

// BuildOriented constructs the degree-ordered view serially.
func BuildOriented(g *Graph) *Oriented { return BuildOrientedParallel(g, 1) }

// BuildOrientedParallel constructs the degree-ordered view, filling and
// sorting the per-rank out-lists across workers (each out-list is touched
// by exactly one worker, so the fill is race-free by construction).
// workers <= 0 selects GOMAXPROCS.
func BuildOrientedParallel(g *Graph, workers int) *Oriented {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := g.NumVertices()
	m := g.NumEdges()
	o := &Oriented{
		Rank: make([]int32, n),
		Vert: make([]uint32, n),
		Off:  make([]int32, n+1),
		Nbr:  make([]int32, m),
		EID:  make([]int32, m),
	}
	if n == 0 {
		return o
	}

	// Counting sort by degree; vertices inside one degree bucket keep
	// ascending ID order, so rank order is exactly (degree, ID).
	maxDeg := 0
	deg := make([]int32, n)
	for v := 0; v < n; v++ {
		d := g.Degree(uint32(v))
		deg[v] = int32(d)
		if d > maxDeg {
			maxDeg = d
		}
	}
	cnt := make([]int32, maxDeg+2)
	for _, d := range deg {
		cnt[d+1]++
	}
	for d := 1; d < len(cnt); d++ {
		cnt[d] += cnt[d-1]
	}
	for v := 0; v < n; v++ {
		r := cnt[deg[v]]
		cnt[deg[v]]++
		o.Rank[v] = r
		o.Vert[r] = uint32(v)
	}

	// Out-degree of rank r = number of neighbors of Vert[r] with higher
	// rank; prefix-sum into Off.
	for v := 0; v < n; v++ {
		rv := o.Rank[v]
		out := int32(0)
		for _, w := range g.Neighbors(uint32(v)) {
			if o.Rank[w] > rv {
				out++
			}
		}
		o.Off[rv+1] = out
	}
	for r := 0; r < n; r++ {
		o.Off[r+1] += o.Off[r]
	}

	// Fill and sort each rank's out-list. Ranks partition the output
	// arrays, so chunking over ranks needs no synchronization beyond the
	// final join.
	fill := func(lo, hi int32) {
		for r := lo; r < hi; r++ {
			v := o.Vert[r]
			nbrs := g.Neighbors(v)
			eids := g.IncidentEdges(v)
			cur := o.Off[r]
			for i, w := range nbrs {
				if rw := o.Rank[w]; rw > r {
					o.Nbr[cur] = rw
					o.EID[cur] = eids[i]
					cur++
				}
			}
			seg := o.Nbr[o.Off[r]:cur]
			ids := o.EID[o.Off[r]:cur]
			sort.Sort(&rankedPair{seg, ids})
		}
	}
	if workers == 1 || n < 4096 {
		fill(0, int32(n))
		return o
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int32) {
			defer wg.Done()
			fill(lo, hi)
		}(int32(lo), int32(hi))
	}
	wg.Wait()
	return o
}

// rankedPair sorts an out-list segment by neighbor rank, carrying the edge
// IDs along.
type rankedPair struct {
	nbr []int32
	eid []int32
}

func (p *rankedPair) Len() int           { return len(p.nbr) }
func (p *rankedPair) Less(i, j int) bool { return p.nbr[i] < p.nbr[j] }
func (p *rankedPair) Swap(i, j int) {
	p.nbr[i], p.nbr[j] = p.nbr[j], p.nbr[i]
	p.eid[i], p.eid[j] = p.eid[j], p.eid[i]
}
