package graph

import (
	"math/rand"
	"testing"
)

func randomOrderedGraph(r *rand.Rand, n, m int) *Graph {
	b := NewBuilder(m)
	for i := 0; i < m; i++ {
		b.AddEdge(uint32(r.Intn(n)), uint32(r.Intn(n)))
	}
	b.DeclareVertex(uint32(n - 1))
	return b.Build()
}

// checkOriented validates every structural invariant of the degree-ordered
// view against its source graph.
func checkOriented(t *testing.T, g *Graph, o *Oriented) {
	t.Helper()
	n := g.NumVertices()
	m := g.NumEdges()
	if len(o.Rank) != n || len(o.Vert) != n || len(o.Off) != n+1 {
		t.Fatalf("dimension mismatch: rank %d vert %d off %d for n=%d",
			len(o.Rank), len(o.Vert), len(o.Off), n)
	}
	if len(o.Nbr) != m || len(o.EID) != m {
		t.Fatalf("out-list arrays hold %d/%d entries, want m=%d", len(o.Nbr), len(o.EID), m)
	}
	// Rank is a permutation ordered by (degree, ID), Vert its inverse.
	for v := 0; v < n; v++ {
		if o.Vert[o.Rank[v]] != uint32(v) {
			t.Fatalf("Vert[Rank[%d]] = %d", v, o.Vert[o.Rank[v]])
		}
	}
	for r := 1; r < n; r++ {
		a, b := o.Vert[r-1], o.Vert[r]
		da, db := g.Degree(a), g.Degree(b)
		if da > db || (da == db && a >= b) {
			t.Fatalf("rank order violated at %d: vertex %d (deg %d) before %d (deg %d)",
				r, a, da, b, db)
		}
	}
	// Each out-list: ascending ranks strictly above the source rank, edge
	// IDs naming the connecting edge.
	if n > 0 && o.Off[n] != int32(m) {
		t.Fatalf("Off[n] = %d, want m = %d", o.Off[n], m)
	}
	for r := int32(0); int(r) < n; r++ {
		v := o.Vert[r]
		lo, hi := o.Off[r], o.Off[r+1]
		for i := lo; i < hi; i++ {
			rw := o.Nbr[i]
			if rw <= r {
				t.Fatalf("rank %d has out-neighbor rank %d (not higher)", r, rw)
			}
			if i > lo && o.Nbr[i-1] >= rw {
				t.Fatalf("out-list of rank %d not strictly ascending", r)
			}
			w := o.Vert[rw]
			want := Edge{v, w}.Canon()
			if g.Edge(o.EID[i]) != want {
				t.Fatalf("rank %d out-entry %d: edge id %d is %v, want %v",
					r, i, o.EID[i], g.Edge(o.EID[i]), want)
			}
		}
	}
}

func TestOrientedInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(120)
		m := r.Intn(6 * n)
		g := randomOrderedGraph(r, n, m)
		checkOriented(t, g, BuildOriented(g))
	}
}

func TestOrientedParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		n := 4200 + r.Intn(2000) // above the parallel-fill cutoff
		m := 3 * n
		g := randomOrderedGraph(r, n, m)
		want := BuildOriented(g)
		for _, workers := range []int{2, 3, 8} {
			got := BuildOrientedParallel(g, workers)
			checkOriented(t, g, got)
			for i := range want.Nbr {
				if want.Nbr[i] != got.Nbr[i] || want.EID[i] != got.EID[i] {
					t.Fatalf("workers %d: out-entry %d differs: (%d,%d) vs (%d,%d)",
						workers, i, want.Nbr[i], want.EID[i], got.Nbr[i], got.EID[i])
				}
			}
		}
	}
}

func TestOrientedEmptyAndTiny(t *testing.T) {
	empty := NewBuilder(0).Build()
	o := BuildOriented(empty)
	if len(o.Rank) != 0 || len(o.Off) != 1 {
		t.Fatalf("empty graph oriented view: %+v", o)
	}
	one := FromEdges([]Edge{{U: 0, V: 1}})
	o = BuildOriented(one)
	if o.Off[2] != 1 || max(o.Off[1]-o.Off[0], o.Off[2]-o.Off[1]) != 1 {
		t.Fatalf("single edge oriented view: %+v", o)
	}
	// Lower (degree, ID) endpoint must own the edge: both have degree 1,
	// so vertex 0 (rank 0) points at vertex 1 (rank 1).
	if o.Vert[0] != 0 || o.Nbr[0] != 1 || o.EID[0] != 0 {
		t.Fatalf("orientation of single edge: %+v", o)
	}
}
