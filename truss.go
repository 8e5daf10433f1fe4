// Package truss is the public API of this reproduction of "Truss
// Decomposition in Massive Networks" (Jia Wang and James Cheng, PVLDB
// 5(9), 2012). The paper presents one problem — truss decomposition —
// solved by five interchangeable algorithms, and the API mirrors that:
// a single entry point,
//
//	d, err := truss.Run(ctx, source, opts...)
//
// runs any of the engines (EngineInMem, EngineBaseline, EngineParallel,
// EngineBottomUp, EngineTopDown, EngineMapReduce — see WithEngine) over
// any Source (FromGraph, FromFile, FromReader) and returns one
// Decomposition interface. The context is threaded through every engine's
// hot loops, so cancellation and deadlines work for in-memory peels and
// multi-hour external runs alike; WithProgress observes levels and
// rounds, WithStats accounts disk traffic in the paper's I/O model.
//
// Graphs are built with NewBuilder / FromEdges or loaded from SNAP-format
// text (or binary) files with LoadGraph. Supporting analyses used by the
// paper's evaluation — k-core decomposition, clustering coefficients, and
// the kmax-truss versus cmax-core comparison — are exposed as well.
//
// For online serving, BuildIndex freezes an in-memory Result into an
// Index that answers truss-number, community, histogram, and top-class
// queries in O(answer) time; BuildIndexFrom does the same for any
// engine's Decomposition by consuming its edge stream, so external and
// MapReduce results are indexable too. NewServer exposes a registry of
// such indexes over HTTP (the `trussd serve` subcommand).
//
// All querying goes through one surface, the Querier interface:
// QueryIndex wraps a local Index, QueryDecomposition adapts any
// Decomposition for one-shot queries without an index build, and the
// client package's Graph speaks the same interface to a remote trussd
// server — code written against Querier cannot tell RAM, spool, and
// HTTP apart.
//
// For dynamic graphs, Open returns a Decomposition whose Update method
// maintains it under edge insertions and deletions — re-peeling only the
// affected region, and recomputing in full once that region passes a
// quarter of the graph's edges — while staying exactly equal to a fresh
// Run of the mutated graph. The server layer builds on the same
// machinery: mutation endpoints patch the resident Index instead of
// rebuilding it, and a snapshot+WAL store under ServerOptions.DataDir
// makes registered graphs survive restarts.
//
// Many exported names here are type aliases for internal packages
// (Graph = internal/graph.Graph, Result = internal/core.Result, and so
// on). The aliases are the supported API: internal packages can be
// restructured between releases, the facade is kept stable.
package truss

import (
	"io"
	"net/http"
	"time"

	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/embu"
	"repro/internal/emtd"
	"repro/internal/gio"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/indexfile"
	"repro/internal/kcore"
	"repro/internal/mapreduce"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/server"
	"repro/internal/viz"
)

// Graph is an immutable undirected simple graph in adjacency (CSR) form.
type Graph = graph.Graph

// Edge is an undirected edge stored canonically with U < V.
type Edge = graph.Edge

// EdgeFromKey is the inverse of Edge.Key.
func EdgeFromKey(k uint64) Edge { return graph.EdgeFromKey(k) }

// Builder accumulates edges and produces a Graph.
type Builder = graph.Builder

// NewBuilder returns a Builder with capacity for sizeHint edges.
func NewBuilder(sizeHint int) *Builder { return graph.NewBuilder(sizeHint) }

// FromEdges builds a graph from an edge list (duplicates and self-loops
// are dropped).
func FromEdges(edges []Edge) *Graph { return graph.FromEdges(edges) }

// LoadGraph reads a graph from a SNAP-format text file, or a binary edge
// file when the path ends in ".bin".
func LoadGraph(path string) (*Graph, error) { return gio.LoadGraph(path, nil) }

// SaveGraph writes a graph in the format implied by the path extension.
func SaveGraph(path string, g *Graph) error { return gio.SaveGraph(path, g, nil) }

// Result is an in-memory truss decomposition: Phi[id] is the truss number
// of edge id, KMax the maximum truss number; k-classes and k-trusses are
// derived views.
type Result = core.Result

// Verify checks a decomposition against the k-truss definition (membership
// and maximality for every k). Intended for tests and validation.
func Verify(r *Result) error { return core.Verify(r) }

// PartitionStrategy selects how the external-memory algorithms split
// vertices into memory-sized parts.
type PartitionStrategy = partition.Strategy

// Partitioning strategies for WithPartition.
const (
	PartitionSequential    = partition.Sequential
	PartitionRandomized    = partition.Randomized
	PartitionDominatingSet = partition.DominatingSet
)

// IOStats counts disk traffic in the Aggarwal-Vitter model; IOs(B) reports
// block transfers.
type IOStats = gio.Stats

// ExternalResult is a disk-resident truss decomposition produced by
// EngineBottomUp (see AsBottomUp): per-edge classes live in a spool;
// summaries are in memory.
type ExternalResult = embu.Result

// TopDownResult is the output of the top-down algorithm (EngineTopDown,
// see AsTopDown).
type TopDownResult = emtd.Result

// MapReduceResult is a TD-MR decomposition with simulated-cluster
// counters (EngineMapReduce, see AsMapReduce).
type MapReduceResult = mapreduce.Result

// CoreResult is a k-core decomposition.
type CoreResult = kcore.Result

// CoreDecompose computes core numbers with the O(m) bin-sort algorithm of
// Batagelj and Zaversnik, the comparison point of the paper's Table 6.
func CoreDecompose(g *Graph) *CoreResult { return kcore.Decompose(g) }

// ClusteringCoefficient returns the average local clustering coefficient
// (Watts-Strogatz), the cohesion metric of Example 1 and Table 6.
func ClusteringCoefficient(g *Graph) float64 { return metrics.ClusteringCoefficient(g) }

// GraphStats is one row of the paper's Table 2 (dataset statistics).
type GraphStats = metrics.TableStats

// Stats computes |V|, |E|, text size, max/median degree, and kmax for g.
func Stats(g *Graph) GraphStats { return metrics.Stats(g) }

// SubgraphStats describes an extremal subgraph in the Table 6 comparison.
type SubgraphStats = metrics.SubgraphStats

// MaxTrussVsMaxCore computes the paper's Table 6 comparison: statistics of
// the kmax-truss versus the cmax-core of g.
func MaxTrussVsMaxCore(g *Graph) (truss, core SubgraphStats) {
	return metrics.TrussVsCore(g)
}

// Community is a triangle-connected component of a k-truss: a maximal set
// of T_k edges linked through shared T_k triangles. Communities may
// overlap on vertices but not on edges.
type Community = community.Community

// Communities returns the k-truss communities of r's graph, largest first.
// k must be at least 3.
func Communities(r *Result, k int32) []Community { return community.Detect(r, k) }

// WriteDOT renders a decomposition as a Graphviz graph with edges colored
// by truss number (the paper's Figure 2 shading).
func WriteDOT(w io.Writer, r *Result, name string) error { return viz.WriteDOT(w, r, name) }

// Index is an immutable, query-optimized view of a truss decomposition:
// truss numbers, k-classes, k-trusses, and triangle-connected k-truss
// communities are all answered in O(answer) time without re-peeling.
// It is safe for concurrent readers. Index is an alias for the internal
// index.TrussIndex; build one with BuildIndex.
type Index = index.TrussIndex

// IndexClass is one k-class as returned by Index.TopClasses.
type IndexClass = index.Class

// BuildIndex freezes an in-memory decomposition Result into an Index.
// The cost is two triangle enumerations (a counting pre-pass sizes the
// triangle buffer exactly) plus the per-level community tables — run it
// once per decomposition, then query freely:
//
//	d, err := truss.Run(ctx, truss.FromGraph(g))
//	...
//	res, _ := truss.AsInMemory(d)
//	ix := truss.BuildIndex(res)
//	k, ok := ix.TrussNumber(u, v)
//
// BuildIndex is the fast path for in-memory results; BuildIndexFrom
// accepts any engine's Decomposition (external spools and MapReduce
// results included) and produces a structurally identical Index.
func BuildIndex(r *Result) *Index { return index.Build(r) }

// IndexFile is an open handle on a memory-mapped index snapshot: the
// on-disk serialization of an Index, validated and served straight off
// the page cache. Its Index() method returns a fully query-capable
// *Index that aliases the mapping — zero copy, open time independent of
// edge count. IndexFile is an alias for the internal indexfile.File;
// produce files with WriteIndexFile and open them with OpenIndexFile.
type IndexFile = indexfile.File

// ErrCorruptIndexFile is wrapped by every validation failure from
// OpenIndexFile and IndexFile.Verify — truncated files, flipped bits,
// impossible section tables. Test with errors.Is.
var ErrCorruptIndexFile = indexfile.ErrCorrupt

// WriteIndexFile atomically persists ix to path in the indexfile format
// (temp file + fsync + rename + directory fsync): a versioned,
// checksummed, 8-byte-aligned binary layout that OpenIndexFile maps
// back without deserializing. source is a free-form provenance label
// stored in the file's metadata section.
func WriteIndexFile(path string, ix *Index, source string) error {
	return indexfile.WriteFile(path, ix, indexfile.Meta{
		Source:          source,
		CreatedUnixNano: time.Now().UnixNano(),
	})
}

// OpenIndexFile memory-maps an index snapshot written by WriteIndexFile
// (ReadFile fallback on platforms without mmap) and validates its
// preamble checksum plus structural invariants — O(kmax) work, so open
// time does not grow with the graph. The returned handle's Index() is
// ready to query immediately; pages fault in from the OS page cache on
// first touch. Call Verify for a full data-checksum sweep (O(file
// size)) when reading files of uncertain provenance. Close releases the
// mapping — only after every *Index obtained from the handle is
// unreachable.
func OpenIndexFile(path string) (*IndexFile, error) { return indexfile.Open(path) }

// Server is an HTTP truss-query server: a registry of named graphs, each
// frozen into an Index, queried concurrently through immutable snapshots
// and rebuilt in the background. Server is an alias for the internal
// server.Server; create one with NewServer and mount Handler on any
// net/http mux (or use the `trussd serve` subcommand).
type Server = server.Server

// ServerOptions configures NewServer.
type ServerOptions = server.Options

// NewServer returns an empty query server. Register graphs with its
// Build/BuildAsync/LoadFileAsync methods or over HTTP, then serve
// Handler:
//
//	srv := truss.NewServer(truss.ServerOptions{})
//	srv.Build("mygraph", g, "inline")
//	http.ListenAndServe(":8080", srv.Handler())
func NewServer(opts ServerOptions) *Server { return server.New(opts) }

// HTTPTimeouts bounds the connection-lifecycle phases (header read, full
// request read, keep-alive idle) of a serving http.Server. Zero fields
// select hardened defaults; negative fields disable that bound.
type HTTPTimeouts = server.HTTPTimeouts

// NewHTTPServer wraps a handler (typically Server.Handler) in an
// http.Server hardened against slow-client connection exhaustion
// (slowloris): header, body-read, and idle phases are all bounded by
// default. `trussd serve` uses exactly this constructor.
func NewHTTPServer(h http.Handler, t HTTPTimeouts) *http.Server {
	return server.NewHTTPServer(h, t)
}

// MetricsRegistry returns the process-default observability registry:
// truss.Run records engine activity into it, NewServer registers its
// serving metrics on it (unless ServerOptions.Metrics overrides), and a
// server's GET /metrics exposes it in the Prometheus text format. A
// non-trussd process can expose it with the registry's WritePrometheus.
func MetricsRegistry() *obs.Registry { return obs.Default() }
