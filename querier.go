package truss

import (
	"context"
	"errors"
	"fmt"
	"iter"

	"repro/internal/community"
	"repro/internal/index"
)

// Querier is the single query surface over a truss decomposition,
// wherever the answers live: a local *Index (QueryIndex), any engine's
// Decomposition without an index build (QueryDecomposition), or a remote
// trussd server (the client package's Graph). The paper's point is that
// five interchangeable algorithms answer the same truss queries; Querier
// makes "which engine, which machine" a deployment detail instead of an
// API fork — code written against it runs unchanged whether the answers
// come from RAM, a disk spool, or HTTP.
//
// Every method takes a context because remote implementations do real
// I/O; local implementations honor cancellation on their long scans and
// otherwise ignore it. Large answers stream: KTrussEdges returns a Go
// iterator rather than a slice, so a remote k-truss is consumed
// edge-by-edge off the wire and a local one straight out of the index.
//
// Implementations agree answer-for-answer (the cross-implementation
// parity suite in querier_test.go enforces it) with one documented
// exception: the edge order of KTrussEdges is implementation-dependent.
type Querier interface {
	// TrussNumber returns phi(u,v) and whether the edge exists.
	TrussNumber(ctx context.Context, u, v uint32) (int32, bool, error)
	// TrussNumbers answers a batch of edge lookups in one operation —
	// one scan for the slow path, one round-trip for a remote graph.
	// The result is parallel to pairs.
	TrussNumbers(ctx context.Context, pairs []Edge) ([]TrussAnswer, error)
	// Histogram returns |Phi_k| indexed by k, length KMax+1 (entries 0
	// and 1 are always zero).
	Histogram(ctx context.Context) ([]int64, error)
	// TopClasses returns the t highest non-empty k-classes, k descending
	// (t <= 0 returns all).
	TopClasses(ctx context.Context, t int) ([]ClassSummary, error)
	// Communities returns the k-truss communities — triangle-connected
	// components of T_k — largest first (ties by lexicographically
	// smallest member edge). k must be at least 3.
	Communities(ctx context.Context, k int32) ([]QueryCommunity, error)
	// KTrussEdges streams every edge of the k-truss T_k (phi >= k) with
	// its truss number; k <= 2 streams all classified edges. The edge
	// order is implementation-dependent. Iteration errors (a dropped
	// connection, a spool read failure, cancellation) surface through
	// the second return value, checked after the loop:
	//
	//	seq, errf := q.KTrussEdges(ctx, 5)
	//	for e, phi := range seq { ... }
	//	if err := errf(); err != nil { ... }
	KTrussEdges(ctx context.Context, k int32) (iter.Seq2[Edge, int32], func() error)
}

// TrussAnswer is one result of a batched Querier.TrussNumbers lookup.
type TrussAnswer struct {
	// Edge is the queried pair, canonicalized (U < V).
	Edge Edge
	// Truss is phi(Edge) when Found, 0 otherwise.
	Truss int32
	// Found reports whether the edge exists in the graph.
	Found bool
}

// ClassSummary describes one non-empty k-class as returned by
// Querier.TopClasses.
type ClassSummary struct {
	// K is the class level: every member edge has truss number exactly K.
	K int32
	// Size is |Phi_K|.
	Size int64
}

// QueryCommunity is one k-truss community as returned by
// Querier.Communities: edges are endpoint pairs (not index-local edge
// IDs), so the representation is portable across local and remote
// implementations.
type QueryCommunity struct {
	// K is the truss level the community lives at.
	K int32
	// Edges lists the member edges, canonical and lexicographically
	// ascending.
	Edges []Edge
	// Vertices lists the covered vertices, ascending. Communities may
	// share vertices (but never edges) with each other.
	Vertices []uint32
}

// errBadCommunityK is the shared k < 3 rejection, aligned with the
// server's 400 on the communities endpoint.
func errBadCommunityK(k int32) error {
	return fmt.Errorf("truss: communities require k >= 3, got %d", k)
}

// The local implementations of the unified query surface.
var (
	_ Querier = indexQuerier{}
	_ Querier = decompQuerier{}
)

// QueryIndex adapts a built *Index to the Querier interface — the fast
// path: every method is answered from the index's O(answer) tables.
func QueryIndex(ix *Index) Querier { return indexQuerier{ix} }

type indexQuerier struct{ ix *index.TrussIndex }

func (q indexQuerier) TrussNumber(ctx context.Context, u, v uint32) (int32, bool, error) {
	k, ok := q.ix.TrussNumber(u, v)
	return k, ok, nil
}

func (q indexQuerier) TrussNumbers(ctx context.Context, pairs []Edge) ([]TrussAnswer, error) {
	out := make([]TrussAnswer, len(pairs))
	for i, p := range pairs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out[i].Edge = p.Canon()
		out[i].Truss, out[i].Found = q.ix.TrussNumber(p.U, p.V)
	}
	return out, nil
}

func (q indexQuerier) Histogram(ctx context.Context) ([]int64, error) {
	return q.ix.Histogram(), nil
}

func (q indexQuerier) TopClasses(ctx context.Context, t int) ([]ClassSummary, error) {
	classes := q.ix.TopClasses(t)
	out := make([]ClassSummary, len(classes))
	for i, c := range classes {
		out[i] = ClassSummary{K: c.K, Size: int64(len(c.Edges))}
	}
	return out, nil
}

func (q indexQuerier) Communities(ctx context.Context, k int32) ([]QueryCommunity, error) {
	if k < 3 {
		return nil, errBadCommunityK(k)
	}
	n := q.ix.CommunityCount(k)
	out := make([]QueryCommunity, 0, n)
	for c := 0; c < n; c++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ids, _ := q.ix.Community(k, c)
		edges := make([]Edge, len(ids))
		for i, id := range ids {
			edges[i] = q.ix.Graph().Edge(id)
		}
		out = append(out, QueryCommunity{K: k, Edges: edges, Vertices: q.ix.Vertices(ids)})
	}
	return out, nil
}

func (q indexQuerier) KTrussEdges(ctx context.Context, k int32) (iter.Seq2[Edge, int32], func() error) {
	var iterErr error
	seq := func(yield func(Edge, int32) bool) {
		for i, id := range q.ix.TrussEdges(k) {
			if i&1023 == 0 {
				if err := ctx.Err(); err != nil {
					iterErr = err
					return
				}
			}
			if !yield(q.ix.Graph().Edge(id), q.ix.EdgeTruss(id)) {
				return
			}
		}
	}
	return seq, func() error { return iterErr }
}

// QueryDecomposition adapts any Decomposition to the Querier interface
// without building an index — the slow path for one-shot queries: point
// and batch lookups scan the decomposition's edge stream (O(m) per
// call, O(1) extra memory for external results), and Communities
// reconstructs the k-truss subgraph first (in-memory results skip the
// reconstruction). For repeated queries build an index once with
// BuildIndexFrom instead.
//
// The adapter does not own d: closing the decomposition remains the
// caller's job, and querying a closed decomposition fails the same way
// reading its spools does.
func QueryDecomposition(d Decomposition) Querier { return decompQuerier{d} }

type decompQuerier struct{ d Decomposition }

// errStopScan aborts an Edges scan early once the answer is complete.
var errStopScan = errors.New("stop scan")

func (q decompQuerier) TrussNumber(ctx context.Context, u, v uint32) (int32, bool, error) {
	answers, err := q.TrussNumbers(ctx, []Edge{{U: u, V: v}})
	if err != nil {
		return 0, false, err
	}
	return answers[0].Truss, answers[0].Found, nil
}

func (q decompQuerier) TrussNumbers(ctx context.Context, pairs []Edge) ([]TrussAnswer, error) {
	out := make([]TrussAnswer, len(pairs))
	want := make(map[uint64][]int, len(pairs)) // key -> indexes into out (duplicates allowed)
	for i, p := range pairs {
		c := p.Canon()
		out[i].Edge = c
		if c.U != c.V { // self-loops can never be edges
			want[c.Key()] = append(want[c.Key()], i)
		}
	}
	remaining := len(want)
	if remaining == 0 {
		// Nothing to look up (empty batch, or self-loops only): skip the
		// O(m) stream scan entirely.
		return out, nil
	}
	count := 0
	err := q.d.Edges(func(u, v uint32, phi int32) error {
		if count&4095 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		count++
		key := Edge{U: u, V: v}.Key()
		idxs, ok := want[key]
		if !ok {
			return nil
		}
		for _, i := range idxs {
			out[i].Truss = phi
			out[i].Found = true
		}
		delete(want, key)
		remaining--
		if remaining == 0 {
			return errStopScan
		}
		return nil
	})
	if err != nil && !errors.Is(err, errStopScan) {
		return nil, err
	}
	return out, nil
}

func (q decompQuerier) Histogram(ctx context.Context) ([]int64, error) {
	return q.d.Histogram(), nil
}

func (q decompQuerier) TopClasses(ctx context.Context, t int) ([]ClassSummary, error) {
	hist := q.d.Histogram()
	var out []ClassSummary
	for k := len(hist) - 1; k >= 2; k-- {
		if hist[k] == 0 {
			continue
		}
		out = append(out, ClassSummary{K: int32(k), Size: hist[k]})
		if t > 0 && len(out) == t {
			break
		}
	}
	return out, nil
}

func (q decompQuerier) Communities(ctx context.Context, k int32) ([]QueryCommunity, error) {
	if k < 3 {
		return nil, errBadCommunityK(k)
	}
	res, ok := AsInMemory(q.d)
	if !ok {
		// Reconstruct the k-truss subgraph from the edge stream: T_k's
		// communities only involve T_k edges and their triangles, so the
		// (much smaller) subgraph suffices — the full graph is never
		// materialized. The stream filtered to phi >= k is itself a valid
		// decomposition stream, so the index package does the
		// sort-and-align reconstruction, and its community tables for
		// level k over the subgraph are exactly T_k's communities.
		sub, err := index.BuildFromStream(ctx, 0, func(fn func(u, v uint32, phi int32) error) error {
			return q.d.Edges(func(u, v uint32, phi int32) error {
				if phi < k {
					return nil
				}
				return fn(u, v, phi)
			})
		})
		if err != nil {
			return nil, err
		}
		return indexQuerier{sub}.Communities(ctx, k)
	}
	comms := community.Detect(res, k)
	out := make([]QueryCommunity, len(comms))
	for i, c := range comms {
		edges := make([]Edge, len(c.Edges))
		for j, id := range c.Edges {
			edges[j] = res.G.Edge(id)
		}
		out[i] = QueryCommunity{K: k, Edges: edges, Vertices: c.Vertices}
	}
	return out, nil
}

func (q decompQuerier) KTrussEdges(ctx context.Context, k int32) (iter.Seq2[Edge, int32], func() error) {
	var iterErr error
	seq := func(yield func(Edge, int32) bool) {
		count := 0
		err := q.d.Edges(func(u, v uint32, phi int32) error {
			if count&4095 == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			count++
			if phi < k {
				return nil
			}
			if !yield(Edge{U: u, V: v}.Canon(), phi) {
				return errStopScan
			}
			return nil
		})
		if err != nil && !errors.Is(err, errStopScan) {
			iterErr = err
		}
	}
	return seq, func() error { return iterErr }
}

// BuildIndexFrom freezes any engine's Decomposition into an Index by
// consuming its edge stream — the path that makes external-memory
// (BottomUp/TopDown spools) and MapReduce results indexable and servable,
// not just in-memory ones. In-memory decompositions take the BuildIndex
// fast path (no reconstruction); everything else is reconstructed from
// the stream in one pass plus a sort. Either way the finished Index is
// structurally identical to BuildIndex over the equivalent in-memory
// Result, answers the same queries, and no longer depends on d: the
// decomposition may be closed (releasing its spools) as soon as
// BuildIndexFrom returns.
//
// A top-t EngineTopDown run yields a partial decomposition; its index
// covers exactly the computed classes.
func BuildIndexFrom(ctx context.Context, d Decomposition) (*Index, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if d == nil {
		return nil, errors.New("truss: BuildIndexFrom requires a non-nil Decomposition")
	}
	if res, ok := AsInMemory(d); ok {
		return index.Build(res), nil
	}
	return index.BuildFromStream(ctx, d.NumVertices(), d.Edges)
}
