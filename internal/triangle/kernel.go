package triangle

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/graph"
)

// ProbeSkew is the degree-skew threshold of the adaptive kernel, and the
// only one: the probe strategy is chosen for edge (u,v) when
// max(deg u, deg v) >= ProbeSkew * min(deg u, deg v). Below it the
// two-pointer merge-scan wins — a merge step costs a compare and two
// advances on cache-resident sorted arrays, while a probe costs a hash and
// a (possibly colliding) table read, or under NewSearchKernel a binary
// search of the larger endpoint's list, so the probe only pays when it
// skips at least ~ProbeSkew merge steps per candidate. A merge runs only
// while the larger degree is under ProbeSkew times the smaller, so it too
// costs O(min(deg u, deg v)) steps per edge.
const ProbeSkew = 8

// Kernel is the adaptive per-edge triangle enumerator, and the one path
// by which every engine lists the triangles of one edge at a time: the PKT
// peel (full and restricted to a region), Algorithm 2's serial peel, the
// threshold Peeler of the external engines, incremental maintenance and
// index patching. For each edge it chooses between a merge-scan of the two
// endpoint adjacency lists and a probe of the closing edge through the
// lower-degree endpoint (the strategy mix Kabir & Madduri's PKT uses;
// degree skew decides which). Only Algorithm 1 calls the merge directly,
// through ForEachMerge.
//
// The closing-edge lookups of NewKernel go through an open-addressing hash
// table over all m edges built once per decomposition — O(1) per probe
// instead of the O(log deg) binary search of Graph.EdgeID, which is the
// difference that makes hub-heavy graphs cheap to peel. NewSearchKernel
// skips the table and binary-searches, for runs that enumerate too few
// edges to pay for it or must not hold an m-sized table.
//
// The kernel is immutable after construction and safe for concurrent use;
// the dispatch counters are atomic.
type Kernel struct {
	g    *graph.Graph
	mask uint64
	keys []uint64 // packed edge key + 1; 0 marks an empty slot
	vals []int32  // edge ID parallel to keys
	// merges/probes count per-edge strategy dispatches (one increment per
	// enumerated edge, not per candidate — cheap enough to always keep).
	merges atomic.Int64
	probes atomic.Int64
}

// NewKernel indexes g's edges for closing-edge probes. Cost: O(m) time and
// a table of 2^ceil(log2 2m) slots of 12 bytes (a uint64 key and an int32
// ID), i.e. 24-48 bytes per edge: 25.2 MB for 751k edges.
func NewKernel(g *graph.Graph) *Kernel {
	m := g.NumEdges()
	size := 16
	if m > 0 {
		size = 1 << bits.Len(uint(2*m-1)) // next power of two >= 2m
		if size < 16 {
			size = 16
		}
	}
	k := &Kernel{
		g:    g,
		mask: uint64(size - 1),
		keys: make([]uint64, size),
		vals: make([]int32, size),
	}
	for id, e := range g.Edges() {
		k.insert(e.Key()+1, int32(id))
	}
	return k
}

// NewSearchKernel returns a Kernel over g without the closing-edge table:
// probes binary-search with Graph.EdgeID, and construction costs nothing.
func NewSearchKernel(g *graph.Graph) *Kernel { return &Kernel{g: g} }

// hashKey mixes a packed edge key (splitmix64 finalizer) so sequential
// vertex IDs spread across the table.
func hashKey(key uint64) uint64 {
	key ^= key >> 30
	key *= 0xbf58476d1ce4e5b9
	key ^= key >> 27
	key *= 0x94d049bb133111eb
	key ^= key >> 31
	return key
}

func (k *Kernel) insert(key uint64, val int32) {
	i := hashKey(key) & k.mask
	for k.keys[i] != 0 {
		i = (i + 1) & k.mask
	}
	k.keys[i] = key
	k.vals[i] = val
}

// Lookup returns the ID of edge (u,v) and whether it exists — Graph.EdgeID
// behind one hash probe (or Graph.EdgeID itself, without the table).
func (k *Kernel) Lookup(u, v uint32) (int32, bool) {
	if k.keys == nil {
		return k.g.EdgeID(u, v)
	}
	key := (graph.Edge{U: u, V: v}).Key() + 1
	i := hashKey(key) & k.mask
	for {
		cur := k.keys[i]
		if cur == key {
			return k.vals[i], true
		}
		if cur == 0 {
			return 0, false
		}
		i = (i + 1) & k.mask
	}
}

// Dispatches returns how many enumerated edges took the merge-scan and
// hash-probe strategies since construction.
func (k *Kernel) Dispatches() (merges, probes int64) {
	return k.merges.Load(), k.probes.Load()
}

// NoneDead is the dead filter of callers without a dead set: every edge
// is live.
func NoneDead(int32) bool { return false }

// ForEachLive enumerates every triangle (u,v,w) of edge (u,v) whose two
// partner edges both satisfy !dead, invoking fn with their IDs, the
// lower-degree endpoint's first, in increasing order of w under either
// strategy. dead must be safe to call concurrently and stable for edges it
// has reported dead (the PKT sub-round guarantee: deaths commit only at
// barriers).
func (k *Kernel) ForEachLive(u, v uint32, dead func(int32) bool, fn func(euw, evw int32)) {
	du, dv := k.g.Degree(u), k.g.Degree(v)
	if du > dv {
		u, v = v, u
		du, dv = dv, du
	}
	if dv >= ProbeSkew*du {
		k.probes.Add(1)
		k.forEachLiveProbe(u, v, dead, fn)
		return
	}
	k.merges.Add(1)
	ForEachMerge(k.g, u, v, dead, fn)
}

// forEachLiveProbe iterates the lower-degree endpoint's adjacency and
// probes the closing edge: O(min(du,dv)) probes, immune to the other
// endpoint's degree.
func (k *Kernel) forEachLiveProbe(u, v uint32, dead func(int32) bool, fn func(euw, evw int32)) {
	nbrs := k.g.Neighbors(u)
	eids := k.g.IncidentEdges(u)
	for i, w := range nbrs {
		if w == v {
			continue
		}
		euw := eids[i]
		if dead(euw) {
			continue
		}
		evw, ok := k.Lookup(v, w)
		if !ok || dead(evw) {
			continue
		}
		fn(euw, evw)
	}
}

// ForEachMerge enumerates the triangles (u,v,w) of edge (u,v) whose two
// partner edges both satisfy !dead by a two-pointer merge of both sorted
// adjacency lists, invoking fn with the partner IDs, u's first. It costs
// O(deg u + deg v) however few triangles survive and looks nothing up:
// the kernel's plan when degrees are comparable, and Step 5 of the paper's
// Algorithm 1 as published.
func ForEachMerge(g *graph.Graph, u, v uint32, dead func(int32) bool, fn func(euw, evw int32)) {
	un, ue := g.Neighbors(u), g.IncidentEdges(u)
	vn, ve := g.Neighbors(v), g.IncidentEdges(v)
	i, j := 0, 0
	for i < len(un) && j < len(vn) {
		switch {
		case un[i] < vn[j]:
			i++
		case un[i] > vn[j]:
			j++
		default:
			if w := un[i]; w != u && w != v {
				euw, evw := ue[i], ve[j]
				if !dead(euw) && !dead(evw) {
					fn(euw, evw)
				}
			}
			i++
			j++
		}
	}
}
