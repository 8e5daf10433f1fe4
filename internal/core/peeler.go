package core

import (
	"repro/internal/graph"
	"repro/internal/triangle"
)

// Peeler performs iterative threshold peeling: repeatedly remove eligible
// edges whose support has fallen to or below a threshold, decrementing the
// supports of their triangle partners. It is the engine behind Procedure 5
// (bottom-up, threshold k-2 over internal edges), Procedure 8 (top-down,
// threshold k-3 over internal edges), and their out-of-core variants
// (Procedures 9 and 10).
//
// Unlike the bin-sorted array in Decompose, the Peeler uses a simple work
// queue: thresholds here are fixed per call rather than swept, so the queue
// achieves the same O(triangles touched) cost without the bin bookkeeping.
type Peeler struct {
	g         *graph.Graph
	kern      *triangle.Kernel
	isDead    func(int32) bool // reads dead, for the kernel
	sup       []int32
	dead      []bool // dead[id] == true once the edge is removed
	removable []bool // nil means every edge is removable
	queue     []int32
	inQueue   []bool
}

// NewPeeler wraps g with initial supports sup. sup is owned by the Peeler
// afterwards and mutated in place.
func NewPeeler(g *graph.Graph, sup []int32) *Peeler {
	m := g.NumEdges()
	dead := make([]bool, m)
	return &Peeler{
		g:       g,
		kern:    triangle.NewSearchKernel(g),
		isDead:  func(id int32) bool { return dead[id] },
		sup:     sup,
		dead:    dead,
		inQueue: make([]bool, m),
	}
}

// Restrict limits removals to edges with removable[id] true (e.g. the
// internal edges of a neighborhood subgraph). Supports of non-removable
// edges are still decremented when their triangles die.
func (p *Peeler) Restrict(removable []bool) { p.removable = removable }

// MarkDead removes edge id up front, without cascading and without
// reporting it from PeelTo. The top-down procedures use this to exclude
// ineligible edges (those provably outside T_k) from triangle enumeration.
func (p *Peeler) MarkDead(id int32) { p.dead[id] = true }

// Sup returns the current support of edge id.
func (p *Peeler) Sup(id int32) int32 { return p.sup[id] }

// Alive reports whether edge id has not been removed.
func (p *Peeler) Alive(id int32) bool { return !p.dead[id] }

func (p *Peeler) removableEdge(id int32) bool {
	return p.removable == nil || p.removable[id]
}

// PeelTo removes every removable edge whose support is <= threshold,
// cascading through support decrements, and returns the removed edge IDs in
// removal order. Calling with increasing thresholds peels classes in
// sequence.
func (p *Peeler) PeelTo(threshold int32) []int32 {
	p.queue = p.queue[:0]
	for id := range p.dead {
		if !p.dead[id] && p.removableEdge(int32(id)) && p.sup[id] <= threshold {
			p.queue = append(p.queue, int32(id))
			p.inQueue[id] = true
		}
	}
	var removed []int32
	for len(p.queue) > 0 {
		e := p.queue[0]
		p.queue = p.queue[1:]
		p.inQueue[e] = false
		if p.dead[e] || p.sup[e] > threshold {
			continue
		}
		p.dead[e] = true
		removed = append(removed, e)
		ed := p.g.Edge(e)
		p.kern.ForEachLive(ed.U, ed.V, p.isDead, func(euw, evw int32) {
			p.decrement(euw, threshold)
			p.decrement(evw, threshold)
		})
	}
	return removed
}

// decrement lowers the support of a surviving edge and enqueues it if it
// became peelable at this threshold.
func (p *Peeler) decrement(e, threshold int32) {
	if p.sup[e] > 0 {
		p.sup[e]--
	}
	if !p.dead[e] && p.removableEdge(e) && p.sup[e] <= threshold && !p.inQueue[e] {
		p.queue = append(p.queue, e)
		p.inQueue[e] = true
	}
}
