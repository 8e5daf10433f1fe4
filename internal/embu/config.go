// Package embu implements the paper's bottom-up I/O-efficient truss
// decomposition (Section 5): the LowerBounding stage (Algorithm 3) that
// computes per-edge truss-number lower bounds and the 2-class while
// shrinking the graph partition by partition, and the bottom-up stage
// (Algorithm 4 with Procedures 5 and 9) that extracts a candidate
// neighborhood subgraph NS(U_k) per k and peels the k-class from it.
//
// The graph lives on disk as streams of fixed-size records (package gio);
// only structures bounded by the configured memory budget are ever
// materialized. One refinement over the paper's pseudocode: each residual
// edge carries an accumulated triangle count in addition to its bound, so
// supports stay exact with respect to the *original* graph even though the
// residual loses edges between iterations — every triangle is counted at
// the unique (iteration, part) where its first edge becomes internal. This
// makes the 2-class test (sup = 0) sound, which Theorem 2 requires.
package embu

import (
	"os"

	"repro/internal/gio"
	"repro/internal/partition"
)

// Config parameterizes the external-memory decomposition.
type Config struct {
	// Budget is the memory budget M, measured in adjacency entries (an
	// in-memory subgraph with e edges consumes 2e entries). Defaults to
	// 1<<22 (enough for graphs of ~2M edges fully in memory).
	Budget int64
	// Strategy selects the vertex partitioner of LowerBounding. The zero
	// value is partition.Sequential; LowerBounding switches to Randomized,
	// which carries the O(m/M) iteration bound of Chu & Cheng [13], after
	// a fruitless iteration. LocalPeel, the local pass of Procedures 9 and
	// 10, always partitions randomly.
	Strategy partition.Strategy
	// Seed drives the randomized partitioner.
	Seed int64
	// TempDir holds spools and sort runs (default os.TempDir()).
	TempDir string
	// Stats, if non-nil, accumulates all disk traffic.
	Stats *gio.Stats
	// OnRound, if non-nil, is invoked at the start of every bottom-up
	// candidate round with the class level k being attempted. It runs on
	// the decomposing goroutine and must be cheap.
	OnRound func(k int32)
}

func (c Config) withDefaults() Config {
	if c.Budget <= 0 {
		c.Budget = 1 << 22
	}
	if c.Budget < 64 {
		c.Budget = 64 // floor: tiny test budgets still need a workable part
	}
	if c.TempDir == "" {
		c.TempDir = os.TempDir()
	}
	return c
}

// Trace records how the run unfolded, for the experiment harness.
type Trace struct {
	// LBIterations is the number of LowerBounding passes (Algorithm 3).
	LBIterations int
	// Rounds is the number of bottom-up candidate rounds (values of k
	// attempted in Algorithm 4).
	Rounds int
	// OversizeRounds counts rounds whose candidate subgraph exceeded the
	// budget and went through Procedure 9.
	OversizeRounds int
	// Proc9Passes counts full partitioned passes inside Procedure 9.
	Proc9Passes int
}

// Result is the output of a bottom-up decomposition: the k-classes as a
// disk-resident stream plus in-memory summaries.
type Result struct {
	// Classes holds one (u, v, phi) record per edge of the input graph.
	Classes *gio.Spool[gio.EdgeAux]
	// ClassSizes maps k to |Phi_k|.
	ClassSizes map[int32]int64
	// KMax is the maximum truss number (0 for an edgeless input).
	KMax int32
	// NumVertices is the vertex-ID space of the input.
	NumVertices int
	// Trace describes the run.
	Trace Trace
}

// PhiMap loads the full decomposition into memory keyed by canonical edge.
// Intended for tests and small graphs.
func (r *Result) PhiMap() (map[uint64]int32, error) {
	out := make(map[uint64]int32, r.Classes.Count())
	err := r.Classes.ForEach(func(rec gio.EdgeAux) error {
		out[rec.Key()] = rec.Aux
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Close removes the result's backing files.
func (r *Result) Close() error { return r.Classes.Remove() }

// classWriter appends classified edges to the result spool.
type classWriter struct {
	w     *gio.SpoolWriter[gio.EdgeAux]
	sizes map[int32]int64
	kmax  int32
}

func (cw *classWriter) emit(u, v uint32, k int32) error {
	cw.sizes[k]++
	if k > cw.kmax {
		cw.kmax = k
	}
	return cw.w.Write(gio.EdgeAux{U: u, V: v, Aux: k})
}
