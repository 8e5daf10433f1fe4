package graph

// This file implements vertex sets and subgraph extraction: subgraphs
// induced by a vertex set or an edge set, and connected components. The
// external-memory algorithms build their neighborhood subgraphs NS(U) of
// Definition 4 from spooled edge records instead (embu.buildSubgraph).

import "math/bits"

// VertexSet is a bitset over vertex IDs.
type VertexSet struct {
	bits []uint64
	n    int
}

// NewVertexSet returns an empty set able to hold vertices [0,n).
func NewVertexSet(n int) *VertexSet {
	return &VertexSet{bits: make([]uint64, (n+63)/64), n: n}
}

// Add inserts v into the set. IDs beyond the capacity are ignored.
func (s *VertexSet) Add(v uint32) {
	if int(v) >= s.n {
		return
	}
	w := &s.bits[v>>6]
	bit := uint64(1) << (v & 63)
	if *w&bit == 0 {
		*w |= bit
	}
}

// Remove deletes v from the set.
func (s *VertexSet) Remove(v uint32) {
	if int(v) >= s.n {
		return
	}
	s.bits[v>>6] &^= uint64(1) << (v & 63)
}

// Contains reports whether v is in the set.
func (s *VertexSet) Contains(v uint32) bool {
	if int(v) >= s.n {
		return false
	}
	return s.bits[v>>6]&(uint64(1)<<(v&63)) != 0
}

// Len returns the number of vertices in the set.
func (s *VertexSet) Len() int {
	c := 0
	for _, w := range s.bits {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clear removes all elements.
func (s *VertexSet) Clear() {
	for i := range s.bits {
		s.bits[i] = 0
	}
}

// ForEach calls fn for every member in increasing order.
func (s *VertexSet) ForEach(fn func(v uint32)) {
	for i, w := range s.bits {
		for w != 0 {
			b := w & (-w)
			fn(uint32(i*64 + bits.TrailingZeros64(w)))
			w ^= b
		}
	}
}

// InducedSubgraph returns the subgraph of g induced by the vertex set u:
// only edges with both endpoints in U.
func InducedSubgraph(g *Graph, u *VertexSet) *Graph {
	var picked []Edge
	for v := 0; v < g.NumVertices(); v++ {
		if !u.Contains(uint32(v)) {
			continue
		}
		for _, w := range g.Neighbors(uint32(v)) {
			if uint32(v) < w && u.Contains(w) {
				picked = append(picked, Edge{uint32(v), w})
			}
		}
	}
	return FromEdges(picked)
}

// EdgeInducedSubgraph returns the subgraph formed by exactly the given
// parent edge IDs.
func EdgeInducedSubgraph(g *Graph, ids []int32) *Graph {
	picked := make([]Edge, 0, len(ids))
	for _, id := range ids {
		picked = append(picked, g.Edge(id))
	}
	return FromEdges(picked)
}

// ConnectedComponents labels each vertex with a component ID in [0,count)
// and returns the labels and the component count. Isolated vertices get
// their own components.
func ConnectedComponents(g *Graph) (labels []int32, count int) {
	n := g.NumVertices()
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	var stack []uint32
	for v := 0; v < n; v++ {
		if labels[v] != -1 {
			continue
		}
		id := int32(count)
		count++
		stack = append(stack[:0], uint32(v))
		labels[v] = id
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.Neighbors(x) {
				if labels[w] == -1 {
					labels[w] = id
					stack = append(stack, w)
				}
			}
		}
	}
	return labels, count
}
