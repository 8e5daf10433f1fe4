// Package index turns a finished truss decomposition into an immutable
// query structure, the TrussIndex, that answers online requests — truss
// numbers, k-truss communities, class histograms and top classes — in
// O(answer) time without re-peeling the graph.
//
// The motivation is the serving side of the paper: the decomposition
// algorithms (in-memory, external-memory, MapReduce) produce the complete
// hierarchy of k-classes once, and an application then wants to query it
// many times ("are u and v in a tight community?", "show the strongest
// communities"). Jakkula & Karypis (Streaming and Batch Algorithms for
// Truss Decomposition) make the same point: keep the decomposition
// resident and answer requests against it rather than recomputing per
// call.
//
// Layout. Edges are permuted into byPhi, sorted by truss number
// descending (ties by edge ID ascending), so every k-truss T_k is a
// prefix of byPhi and every k-class Phi_k is a contiguous segment of it.
// On top of that, for each level k in [3, kmax] the index stores the
// triangle-connected components of T_k (the k-truss communities) as a
// grouped edge permutation plus offsets, so a community is returned as a
// single subslice.
//
// Construction. Triangles are bucketed by the minimum truss number of
// their three edges in two passes (count, then fill) over one
// degree-ordered view, fanned out over fixed rank chunks on GOMAXPROCS
// workers; per-chunk tallies are prefix-summed into exact write offsets,
// so the flat triangle array is exact-sized and keeps the serial order.
// Levels are then materialized from kmax downward over one monotone
// union-find, adding each bucket's triangles before snapshotting —
// T_{k-1}'s components only ever merge components of T_k. A snapshot is
// one counting pass over T_k in edge-ID order (the ID-sorted T_{k+1}
// merged with class k) that numbers components by first appearance, a
// sort of the community list by size, and a scatter of every edge into
// its slot. Construction holds 12 bytes per triangle plus O(m) scratch
// beyond the index itself.
//
// A TrussIndex is immutable after Build and safe for concurrent readers
// without locking.
package index

import (
	"cmp"
	"runtime"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/dsu"
	"repro/internal/graph"
	"repro/internal/triangle"
)

// TrussIndex is an immutable, query-optimized view of a truss
// decomposition. Build one with Build; all methods are safe for
// concurrent use.
type TrussIndex struct {
	g     *graph.Graph
	phi   []int32 // phi[id] = truss number of edge id (copied from the Result)
	kmax  int32
	byPhi []int32 // edge IDs sorted by phi desc, ID asc: T_k = byPhi[:cnt[k]]
	pos   []int32 // pos[id] = index of edge id in byPhi
	cnt   []int32 // cnt[k] = |T_k|, k = 0..kmax+1 (cnt[kmax+1] = 0)
	sizes []int64 // sizes[k] = |Phi_k|, k = 0..kmax

	// levels[k] holds the k-truss communities for k = 3..kmax; entries
	// 0..2 are zero (T_2 imposes no triangle structure).
	levels []level

	// borrowed marks arrays that alias storage the index does not own
	// (FromRawParts over a mapped file, which may be unmapped once the
	// index is dropped): Patch copies what it would otherwise share.
	borrowed bool
}

// level is the componentization of one k-truss into its triangle-connected
// communities.
type level struct {
	edgeOrder []int32 // T_k edge IDs grouped by community, largest community first
	commOff   []int32 // community c = edgeOrder[commOff[c]:commOff[c+1]]
	commIdx   []int32 // commIdx[pos[id]] = community of edge id (indexed by byPhi position)
}

// Class describes one k-class as returned by TopClasses.
type Class struct {
	// K is the class level: every edge in Edges has truss number exactly K.
	K int32
	// Edges lists the member edge IDs, ascending. The slice aliases index
	// storage and must not be modified.
	Edges []int32
}

// Build constructs a TrussIndex from a decomposition. The result's Phi
// slice is copied, so r may be discarded or mutated afterwards; the graph
// r.G is retained by reference. Build costs two triangle enumerations
// (O(m^1.5)), run over rank chunks on GOMAXPROCS workers, plus
// O(sum_k |T_k|) for the per-level community tables; it transiently holds
// 12 bytes per triangle (exact-sized by the counting pass) and O(m)
// scratch while the levels are snapshotted. It is meant to run once per
// decomposition, off the query path.
func Build(r *core.Result) *TrussIndex {
	ix := &TrussIndex{
		g:    r.G,
		phi:  append([]int32(nil), r.Phi...),
		kmax: r.KMax,
	}
	ix.initArrays()
	ix.buildLevels(runtime.GOMAXPROCS(0))
	return ix
}

// initArrays fills the per-edge permutation tables (sizes, cnt, byPhi,
// pos) from ix.phi and ix.kmax in O(m).
func (ix *TrussIndex) initArrays() {
	m := len(ix.phi)
	ix.sizes = make([]int64, ix.kmax+1)
	for _, p := range ix.phi {
		ix.sizes[p]++
	}

	// Bin-sort edge IDs by truss number descending. Iterating edge IDs in
	// ascending order keeps ties ID-ascending within each class.
	ix.cnt = make([]int32, ix.kmax+2)
	ix.byPhi = make([]int32, m)
	ix.pos = make([]int32, m)
	cursor := make([]int32, ix.kmax+1)
	start := int32(0)
	for k := ix.kmax; k >= 0; k-- {
		cursor[k] = start
		start += int32(ix.sizes[k])
		ix.cnt[k] = start
	}
	for id := 0; id < m; id++ {
		p := ix.phi[id]
		ix.byPhi[cursor[p]] = int32(id)
		ix.pos[id] = cursor[p]
		cursor[p]++
	}
}

// buildLevels materializes the triangle-connected components of every
// k-truss on up to workers goroutines and returns how many triangles it
// left out because one of their edges has truss number below 3 — zero for
// any valid decomposition, where every edge of a triangle keeps support 1
// within the triangle itself. Such a triangle lies in no T_k with k >= 3,
// so leaving it out is exactly right for the tables; BuildFromStream
// reports it as corruption.
//
// A triangle lives in T_k exactly for k <= min phi of its three edges, so
// the (e1,e2,e3) triples are bucketed by that minimum into one flat array
// of 12 bytes per triangle, exact-sized by a counting pass. Both passes
// enumerate one degree-ordered view over fixed rank chunks: the count pass
// tallies each chunk's triangles per bucket, a prefix sum in (bucket,
// chunk) order turns the tallies into exact write offsets, and the fill
// pass writes each chunk's triangles from its own offsets, so every bucket
// holds its triangles in the serial enumeration order for any worker
// count. sweepLevels then snapshots the levels from kmax down to 3.
func (ix *TrussIndex) buildLevels(workers int) (skipped int64) {
	ix.levels = make([]level, ix.kmax+1)
	if ix.kmax < 3 {
		return 0
	}
	o := graph.BuildOrientedParallel(ix.g, workers)
	phi := ix.phi
	minPhi := func(e1, e2, e3 int32) int32 {
		return min(phi[e1], phi[e2], phi[e3])
	}

	// tally[c*stride+k] counts chunk c's triangles of minimum phi k. Rows
	// are padded to a cache line so workers on neighbouring chunks do not
	// share one, and chunks are widened past triangle.Chunk ranks when
	// needed to keep the table within m entries for any kmax.
	n, m := int64(len(o.Vert)), int64(len(phi))
	stride := (int64(ix.kmax) + 1 + 7) &^ 7
	size := int64(triangle.Chunk)
	if (n+size-1)/size*stride > m {
		size = (n*stride + m - 1) / m
	}
	chunks := (n + size - 1) / size
	tally := make([]int64, chunks*stride)
	triangle.ForEachChunked(o, int32(size), workers, func(c, e1, e2, e3 int32) {
		tally[int64(c)*stride+int64(minPhi(e1, e2, e3))]++
	})

	// Turn the tallies into write cursors in place. off[k] is the start
	// of bucket k in tris, in triples.
	off := make([]int64, ix.kmax+2)
	var total int64
	for k := int64(0); k <= int64(ix.kmax); k++ {
		off[k] = total
		for c := int64(0); c < chunks; c++ {
			i := c*stride + k
			if k < 3 {
				skipped += tally[i]
				continue
			}
			tally[i], total = total, total+tally[i]
		}
	}
	off[ix.kmax+1] = total
	tris := make([]int32, 3*total)
	triangle.ForEachChunked(o, int32(size), workers, func(c, e1, e2, e3 int32) {
		k := minPhi(e1, e2, e3)
		if k < 3 {
			return
		}
		cur := &tally[int64(c)*stride+int64(k)]
		i := 3 * *cur
		tris[i], tris[i+1], tris[i+2] = e1, e2, e3
		*cur++
	})

	buckets := make([][]int32, ix.kmax+1)
	for k := int32(3); k <= ix.kmax; k++ {
		buckets[k] = tris[3*off[k] : 3*off[k+1]]
	}
	ix.sweepLevels(dsu.New(len(phi)), make([]int32, 0, ix.cnt[3]), buckets)
	return skipped
}

// sweepLevels snapshots levels len(buckets)-1 down to 3 over one
// union-find. On entry uf holds the components of T_{kTop+1} (kTop =
// len(buckets)-1) and ids lists T_{kTop+1}'s edges in ascending ID order,
// with capacity for all of T_3. At each level k the triangles of minimum
// truss number k (buckets[k], flattened (e1,e2,e3) triples) are unioned
// in — T_{k-1}'s components only ever merge T_k's, so one union-find
// serves every level — class k, an ID-ascending segment of byPhi, is
// merged into ids, and the partition of T_k is frozen.
func (ix *TrussIndex) sweepLevels(uf *dsu.UnionFind, ids []int32, buckets [][]int32) {
	s := newSnapshotter(len(ix.phi))
	for k := int32(len(buckets) - 1); k >= 3; k-- {
		t := buckets[k]
		for i := 0; i < len(t); i += 3 {
			uf.Union(t[i], t[i+1])
			uf.Union(t[i], t[i+2])
		}
		ids = mergeAscending(ids, ix.Class(k))
		ix.levels[k] = s.snapshot(ids, uf, ix.pos)
	}
}

// mergeAscending merges the ascending slice add into the ascending slice
// ids, in place from the back, and returns the extended ids; ids must
// have capacity for both.
func mergeAscending(ids, add []int32) []int32 {
	i := len(ids) - 1
	ids = ids[:len(ids)+len(add)]
	for j, w := len(add)-1, len(ids)-1; j >= 0; w-- {
		if i >= 0 && ids[i] > add[j] {
			ids[w] = ids[i]
			i--
		} else {
			ids[w] = add[j]
			j--
		}
	}
	return ids
}

// snapshotter freezes union-find partitions into level tables. Its
// scratch is allocated once per build or patch and reused at every level.
type snapshotter struct {
	comm  []int32 // comm[root] = community of root's set during a snapshot, else -1
	roots []int32 // per community, by first appearance: its root, later its rank
	sizes []int32 // per community: its size, later its write cursor
	order []int32 // communities in table order
}

func newSnapshotter(m int) *snapshotter {
	comm := make([]int32, m)
	for i := range comm {
		comm[i] = -1
	}
	return &snapshotter{comm: comm}
}

// snapshot freezes uf's partition of the k-truss, whose edges ids lists
// in ascending ID order, into a level table: communities largest first,
// ties by smallest member ID, each listing its edges ascending (the order
// community.Detect uses). One pass numbers the communities by first
// appearance — which, as ids ascend, is by smallest member ID — and sizes
// them; sorting the community list fixes the table order; a second pass
// scatters every edge to its slot, so each community stays ID-ascending.
func (s *snapshotter) snapshot(ids []int32, uf *dsu.UnionFind, pos []int32) level {
	lv := level{
		edgeOrder: make([]int32, len(ids)),
		commIdx:   make([]int32, len(ids)),
	}
	s.roots, s.sizes = s.roots[:0], s.sizes[:0]
	for _, e := range ids {
		r := uf.Find(e)
		c := s.comm[r]
		if c < 0 {
			c = int32(len(s.roots))
			s.comm[r] = c
			s.roots = append(s.roots, r)
			s.sizes = append(s.sizes, 0)
		}
		s.sizes[c]++
		lv.commIdx[pos[e]] = c
	}
	s.order = s.order[:0]
	for c, r := range s.roots {
		s.comm[r] = -1
		s.order = append(s.order, int32(c))
	}
	slices.SortFunc(s.order, func(a, b int32) int {
		if d := cmp.Compare(s.sizes[b], s.sizes[a]); d != 0 {
			return d
		}
		return cmp.Compare(a, b)
	})
	lv.commOff = make([]int32, len(s.order)+1)
	rank, next := s.roots, s.sizes
	for i, c := range s.order {
		rank[c] = int32(i)
		lv.commOff[i+1] = lv.commOff[i] + s.sizes[c]
	}
	for c := range next {
		next[c] = lv.commOff[rank[c]]
	}
	for _, e := range ids {
		p := pos[e]
		c := lv.commIdx[p]
		lv.commIdx[p] = rank[c]
		lv.edgeOrder[next[c]] = e
		next[c]++
	}
	return lv
}

// Graph returns the indexed graph.
func (ix *TrussIndex) Graph() *graph.Graph { return ix.g }

// KMax returns the maximum truss number over all edges.
func (ix *TrussIndex) KMax() int32 { return ix.kmax }

// NumEdges returns the number of indexed edges.
func (ix *TrussIndex) NumEdges() int { return len(ix.phi) }

// TrussNumber returns phi(u,v), the truss number of edge (u,v), and
// whether the edge exists. The lookup is one binary search in the smaller
// endpoint's adjacency list — O(log deg), no peeling.
func (ix *TrussIndex) TrussNumber(u, v uint32) (int32, bool) {
	if u == v || int(u) >= ix.g.NumVertices() || int(v) >= ix.g.NumVertices() {
		return 0, false
	}
	id, ok := ix.g.EdgeID(u, v)
	if !ok {
		return 0, false
	}
	return ix.phi[id], true
}

// EdgeTruss returns the truss number of the edge with the given ID.
func (ix *TrussIndex) EdgeTruss(id int32) int32 { return ix.phi[id] }

// PhiView returns the index's truss numbers indexed by edge ID. The slice
// aliases index storage and must not be modified; it is the zero-copy
// input the incremental-maintenance path feeds back into dynamic.Update.
func (ix *TrussIndex) PhiView() []int32 { return ix.phi }

// Histogram returns |Phi_k| for k = 0..KMax (entries 0 and 1 are zero, and
// entry 2 counts the triangle-free edges). The slice is freshly allocated.
func (ix *TrussIndex) Histogram() []int64 {
	return append([]int64(nil), ix.sizes...)
}

// ClassSize returns |Phi_k| without materializing the class.
func (ix *TrussIndex) ClassSize(k int32) int64 {
	if k < 0 || k > ix.kmax {
		return 0
	}
	return ix.sizes[k]
}

// Class returns the edge IDs with truss number exactly k, ascending. The
// slice aliases index storage and must not be modified.
func (ix *TrussIndex) Class(k int32) []int32 {
	if k < 0 || k > ix.kmax {
		return nil
	}
	return ix.byPhi[ix.cnt[k+1]:ix.cnt[k]]
}

// TrussSize returns the number of edges of the k-truss T_k.
func (ix *TrussIndex) TrussSize(k int32) int {
	if k > ix.kmax {
		return 0
	}
	if k < 0 {
		k = 0
	}
	return int(ix.cnt[k])
}

// TrussEdges returns the edge IDs of the k-truss T_k (phi >= k), ordered
// by truss number descending. The slice aliases index storage and must
// not be modified.
func (ix *TrussIndex) TrussEdges(k int32) []int32 {
	if k > ix.kmax {
		return nil
	}
	if k < 0 {
		k = 0
	}
	return ix.byPhi[:ix.cnt[k]]
}

// TopClasses returns the t highest non-empty k-classes, k descending —
// the online counterpart of the top-down algorithm's output (t <= 0
// returns all non-empty classes). Cost is O(t) plus nothing per edge: the
// Edges slices are views into the index.
func (ix *TrussIndex) TopClasses(t int) []Class {
	var out []Class
	for k := ix.kmax; k >= 2; k-- {
		if ix.sizes[k] == 0 {
			continue
		}
		out = append(out, Class{K: k, Edges: ix.byPhi[ix.cnt[k+1]:ix.cnt[k]]})
		if t > 0 && len(out) == t {
			break
		}
	}
	return out
}

// CommunityOf returns the edge IDs of the k-truss community containing
// edge (u,v): the maximal set of T_k edges reachable from it through
// shared T_k triangles. It reports false when the edge does not exist or
// its truss number is below k; k must be at least 3. The returned slice
// is ascending by edge ID, aliases index storage, and must not be
// modified. Cost is one edge lookup plus two array reads — O(log deg),
// independent of graph and community size.
func (ix *TrussIndex) CommunityOf(u, v uint32, k int32) ([]int32, bool) {
	if k < 3 || k > ix.kmax || u == v ||
		int(u) >= ix.g.NumVertices() || int(v) >= ix.g.NumVertices() {
		return nil, false
	}
	id, ok := ix.g.EdgeID(u, v)
	if !ok || ix.phi[id] < k {
		return nil, false
	}
	lv := &ix.levels[k]
	c := lv.commIdx[ix.pos[id]]
	return lv.edgeOrder[lv.commOff[c]:lv.commOff[c+1]], true
}

// CommunityCount returns the number of k-truss communities at level k
// (0 when k < 3 or k > KMax).
func (ix *TrussIndex) CommunityCount(k int32) int {
	if k < 3 || k > ix.kmax {
		return 0
	}
	return len(ix.levels[k].commOff) - 1
}

// Community returns community c (0-based, largest first) of the k-truss,
// as returned edge IDs ascending. The slice aliases index storage and
// must not be modified.
func (ix *TrussIndex) Community(k int32, c int) ([]int32, bool) {
	if k < 3 || k > ix.kmax || c < 0 || c >= ix.CommunityCount(k) {
		return nil, false
	}
	lv := &ix.levels[k]
	return lv.edgeOrder[lv.commOff[c]:lv.commOff[c+1]], true
}

// Vertices expands a set of edge IDs (as returned by CommunityOf, Class,
// or Community) into the sorted set of vertices they cover.
func (ix *TrussIndex) Vertices(edges []int32) []uint32 {
	seen := make(map[uint32]struct{}, len(edges))
	for _, id := range edges {
		e := ix.g.Edge(id)
		seen[e.U] = struct{}{}
		seen[e.V] = struct{}{}
	}
	out := make([]uint32, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FootprintBytes estimates the index's resident size (excluding the
// graph): the fixed per-edge arrays plus the per-level community tables,
// whose total is bounded by sum over edges of (phi(e)-2).
func (ix *TrussIndex) FootprintBytes() int64 {
	b := int64(len(ix.phi)+len(ix.byPhi)+len(ix.pos)+len(ix.cnt)) * 4
	b += int64(len(ix.sizes)) * 8
	for k := range ix.levels {
		lv := &ix.levels[k]
		b += int64(len(lv.edgeOrder)+len(lv.commOff)+len(lv.commIdx)) * 4
	}
	return b
}
