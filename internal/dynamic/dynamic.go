// Package dynamic maintains a truss decomposition under edge insertions
// and deletions without re-peeling the whole graph.
//
// The paper decomposes static snapshots; this package adds the online
// counterpart that the serving layer needs. It exploits the locality of
// truss numbers observed by Jakkula & Karypis (Streaming and Batch
// Algorithms for Truss Decomposition) and Huang et al.: a mutation can
// only change phi along triangle-connected chains rooted at the modified
// edges, and whether a chain propagates through an edge is decided by
// counts at exactly two levels of that edge's truss number. Update turns
// that into an exact algorithm:
//
//  1. Rebuild the CSR graph with graph.ApplyBatch (O(m) merge, no
//     re-sort) and carry old truss numbers across the edge-ID remap.
//  2. Seed the affected region with the inserted edges, their triangle
//     partners, and the surviving triangle partners of deleted edges,
//     then close it under promotion reachability: an edge f with truss
//     number p can rise only through a triangle whose other two edges
//     both reach p+1, and since a batch of b insertions raises any truss
//     number by at most b, "can reach p+1" is decidable from the old
//     numbers (region members bound by phi+b, inserted edges unbounded,
//     frozen edges by phi). Every edge whose number rises is in the
//     closure — a riser needs a support triangle carrying a risen or
//     inserted edge, else its old number was already higher.
//  3. Re-peel only the region with core.PeelRegion, PKT's peel restricted
//     to the region: edges outside it are frozen at their old phi and
//     stay in the graph only up to that level (the k-level locality rule),
//     leaving with its first frontier. The peel fans a phase out over
//     Config.Workers only once it holds 256 items.
//  4. Certify the frozen boundary against demotions: edge f with phi p is
//     safe iff it still has >= p-2 triangles whose other two edges sit at
//     phi >= p. Violated edges join the region and the peel repeats; the
//     loop converges because the region only grows. On termination every
//     set {phi >= k} is self-certifying (each member keeps >= k-2
//     triangles inside it), i.e. a k-truss, so no edge is over-assigned;
//     the promotion closure already guarantees none is under-assigned.
//  5. If the region exceeds a configurable fraction of m, fall back to
//     the full parallel decomposition (the PKT-style peeler): locality
//     has lost, recomputing is cheaper than chasing the fixpoint.
//
// Either path yields exactly the decomposition a fresh run would produce;
// the differential tests in this package and at the repository root hold
// Update to that bar after every batch.
package dynamic

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/triangle"
)

// Batch is one set of mutations applied atomically: deletions first, then
// insertions (an edge in both lists ends up present). Duplicates,
// self-loops, deletions of absent edges and insertions of present edges
// are all tolerated and ignored.
type Batch struct {
	Adds []graph.Edge
	Dels []graph.Edge
}

// Config tunes Update. The zero value picks sensible defaults.
type Config struct {
	// MaxRegionFraction bounds the affected region: when the region grows
	// past this fraction of the new graph's edges, Update abandons
	// locality and recomputes from scratch (0 selects 0.25; values >= 1
	// never fall back).
	MaxRegionFraction float64
	// Workers is handed to the parallel peeler on the fallback path and
	// bounds the goroutines of the region re-peel (0 = GOMAXPROCS).
	Workers int
}

func (c Config) maxRegionFraction() float64 {
	if c.MaxRegionFraction <= 0 {
		return 0.25
	}
	return c.MaxRegionFraction
}

// Stats describes how an Update was carried out.
type Stats struct {
	// Region is the number of edges re-peeled (0 on the fallback path).
	Region int
	// Boundary is the number of frozen edges checked around the region.
	Boundary int
	// Expansions counts boundary-certification failures that grew the
	// region (0 means the first region was already closed).
	Expansions int
	// Changed is the number of edges whose truss number differs from the
	// value carried over, plus all inserted edges.
	Changed int
	// FellBack reports that the region limit was hit and the decomposition
	// was recomputed in full.
	FellBack bool
	// ParallelPeels counts region re-peels in which some phase ran on
	// more than one goroutine (a phase fans out only at 256 items, and
	// only when Workers > 1).
	ParallelPeels int
}

// Result is the maintained decomposition after one batch.
type Result struct {
	// G is the post-batch graph.
	G *graph.Graph
	// Phi[id] is the truss number of new-graph edge id — exactly what a
	// fresh decomposition of G would produce.
	Phi []int32
	// KMax is the maximum truss number over all edges.
	KMax int32
	// Remap translates edge IDs between the old and new graphs.
	Remap *graph.Remap
	// Changed lists new-graph edge IDs whose truss number is not carried
	// over unchanged from the old graph: every edge whose phi differs,
	// plus every inserted edge. Deleted edges are implicit in Remap.
	Changed []int32
	// Stats describes the work done.
	Stats Stats
}

// Update applies batch to the decomposition (g, phi) and returns the
// exact decomposition of the mutated graph. phi must be the truss numbers
// of g's edges (as produced by any of the engines); it is read, never
// modified. The context is polled at every barrier of the re-peel and
// during the fallback recompute.
func Update(ctx context.Context, g *graph.Graph, phi []int32, batch Batch, cfg Config) (*Result, error) {
	if len(phi) != g.NumEdges() {
		return nil, fmt.Errorf("dynamic: phi has %d entries for a graph with %d edges", len(phi), g.NumEdges())
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g2, re := g.ApplyBatch(batch.Adds, batch.Dels)
	m2 := g2.NumEdges()

	// Carry surviving truss numbers across the remap; inserted edges start
	// at the universal lower bound 2 (they are re-peeled regardless). The
	// re-peel overwrites the region's entries, so phi2 ends up the result.
	phi2 := make([]int32, m2)
	for newID, oldID := range re.NewToOld {
		if oldID >= 0 {
			phi2[newID] = phi[oldID]
		} else {
			phi2[newID] = 2
		}
	}
	res := &Result{G: g2, Remap: re}
	if len(re.Added) == 0 && len(re.Deleted) == 0 {
		// The batch collapsed to a no-op: the old decomposition carries
		// over verbatim.
		res.Phi = phi2
		res.KMax = maxPhi(phi2)
		return res, nil
	}

	limit := int(cfg.maxRegionFraction() * float64(m2))

	// Seed the affected region: inserted edges, their triangle partners
	// (new triangles raise support), and the surviving partners of
	// deleted edges' triangles (destroyed triangles lower support).
	// Triangles are listed in the new graph, and a deleted edge's in the
	// old one.
	kern, oldKern := triangle.NewSearchKernel(g2), triangle.NewSearchKernel(g)
	inR := make([]bool, m2)
	var region []int32
	grow := func(id int32) {
		if !inR[id] {
			inR[id] = true
			region = append(region, id)
		}
	}
	for _, id := range re.Added {
		grow(id)
		e := g2.Edge(id)
		kern.ForEachLive(e.U, e.V, triangle.NoneDead, func(a, b int32) {
			grow(a)
			grow(b)
		})
	}
	for _, oldID := range re.Deleted {
		e := g.Edge(oldID)
		oldKern.ForEachLive(e.U, e.V, triangle.NoneDead, func(a, b int32) {
			if na := re.OldToNew[a]; na >= 0 {
				grow(na)
			}
			if nb := re.OldToNew[b]; nb >= 0 {
				grow(nb)
			}
		})
	}

	// Close the region under promotion reachability. ub(x) bounds the
	// truss number x can reach: a batch of nAdds insertions raises any
	// surviving edge's phi by at most nAdds (each single insertion raises
	// it by at most one, and deletions never raise it), while inserted
	// edges are unconstrained. Edge f can be promoted only if some
	// triangle gives it support at level phi2[f]+1 — both partners
	// reaching phi2[f]+1 — and at least one support triangle must carry a
	// risen or inserted partner (otherwise f's old number was already
	// phi2[f]+1, by the maximality of the old decomposition). Risers form
	// chains rooted at the inserted edges, so scanning every region
	// edge's triangles, admitting any third edge whose partners' bounds
	// clear its phi2[f]+1, and rescanning from each admitted edge reaches
	// them all.
	nAdds := int64(len(re.Added))
	ub := func(x int32) int64 {
		if re.NewToOld[x] < 0 {
			return int64(^uint32(0)) // inserted: no useful bound
		}
		return int64(phi2[x]) + nAdds
	}
	if nAdds > 0 {
		for qi := 0; qi < len(region); qi++ { // region grows while we scan it
			x := region[qi]
			xe := g2.Edge(x)
			kern.ForEachLive(xe.U, xe.V, triangle.NoneDead, func(f, z int32) {
				if !inR[f] && ub(x) > int64(phi2[f]) && ub(z) > int64(phi2[f]) {
					grow(f)
				}
				if !inR[z] && ub(x) > int64(phi2[z]) && ub(f) > int64(phi2[z]) {
					grow(z)
				}
			})
			if len(region) > limit {
				return fallback(ctx, g2, re, phi, cfg, res)
			}
		}
	}

	// Re-peel the region against the frozen rest. Edges outside the region
	// keep their carried numbers in phi2, so every pass, expansions
	// included, reads them as the frozen levels.
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if len(region) > limit {
			return fallback(ctx, g2, re, phi, cfg, res)
		}
		boundary, fanned, err := core.PeelRegion(ctx, g2, phi2, region, cfg.Workers, core.Hooks{})
		if err != nil {
			return nil, err
		}
		if fanned {
			res.Stats.ParallelPeels++
		}
		res.Stats.Boundary = len(boundary)
		violated := checkBoundary(kern, g2, phi2, boundary)
		if len(violated) == 0 {
			break
		}
		for _, f := range violated {
			grow(f)
		}
		res.Stats.Expansions++
	}

	res.Phi = phi2
	for _, e := range region {
		if old := re.NewToOld[e]; old < 0 || phi2[e] != phi[old] {
			res.Changed = append(res.Changed, e)
		}
	}
	res.KMax = maxPhi(res.Phi)
	res.Stats.Region = len(region)
	res.Stats.Changed = len(res.Changed)
	return res, nil
}

// fallback recomputes the decomposition of g2 from scratch with the
// parallel peeler and reports the delta against the old truss numbers phi.
func fallback(ctx context.Context, g2 *graph.Graph, re *graph.Remap, phi []int32, cfg Config, res *Result) (*Result, error) {
	full, err := core.DecomposeParallelCtx(ctx, g2, cfg.Workers, core.Hooks{})
	if err != nil {
		return nil, err
	}
	res.Phi = full.Phi
	res.KMax = full.KMax
	for id, old := range re.NewToOld {
		if old < 0 || res.Phi[id] != phi[old] {
			res.Changed = append(res.Changed, int32(id))
		}
	}
	res.Stats.FellBack = true
	res.Stats.Changed = len(res.Changed)
	return res, nil
}

// maxPhi returns the maximum entry of phi (0 for an empty slice).
func maxPhi(phi []int32) int32 {
	var k int32
	for _, p := range phi {
		if p > k {
			k = p
		}
	}
	return k
}

// checkBoundary certifies the frozen edges against the candidate
// assignment phi (re-peeled inside the region, carried outside). By the two-level
// fixpoint characterization of truss numbers, phi(f) = p is undisturbed
// iff f keeps at least p-2 triangles whose other edges both sit at
// phi >= p, and fewer than p-1 triangles at phi >= p+1 (the old
// assignment satisfied both by exactness, so only changed counts can
// violate them). Violated edges must join the region.
func checkBoundary(kern *triangle.Kernel, g2 *graph.Graph, phi, boundary []int32) []int32 {
	var violated []int32
	for _, f := range boundary {
		p := phi[f]
		var atP, aboveP int32
		fd := g2.Edge(f)
		kern.ForEachLive(fd.U, fd.V, triangle.NoneDead, func(a, b int32) {
			mn := min(phi[a], phi[b])
			if mn >= p {
				atP++
			}
			if mn >= p+1 {
				aboveP++
			}
		})
		if atP < p-2 || aboveP >= p-1 {
			violated = append(violated, f)
		}
	}
	return violated
}
