package index

import (
	"context"
	"encoding/binary"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/dsu"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/triangle"
)

// fixtures returns the graphs every index property is cross-checked on:
// the paper's running example plus generated graphs with hubs, planted
// cliques, and community structure.
func fixtures() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"paper":     gen.PaperExample(),
		"managers":  gen.Managers(),
		"community": gen.Community(8, 12, 0.8, 1.5, 7),
		"ba":        gen.BarabasiAlbert(300, 4, 11),
		"cliques":   gen.WithPlantedCliques(gen.ErdosRenyi(200, 500, 3), []int{8, 6, 5}, 9),
		"triangle":  graph.FromEdges([]graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}}),
		"path": graph.FromEdges([]graph.Edge{
			{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}),
		"empty": graph.FromEdges(nil),
	}
}

func TestTrussNumberMatchesDecompose(t *testing.T) {
	for name, g := range fixtures() {
		r := core.Decompose(g)
		ix := Build(r)
		for id, want := range r.Phi {
			e := g.Edge(int32(id))
			got, ok := ix.TrussNumber(e.U, e.V)
			if !ok || got != want {
				t.Fatalf("%s: TrussNumber%v = %d,%v want %d,true", name, e, got, ok, want)
			}
			// Lookups are symmetric in the endpoints.
			if got2, ok2 := ix.TrussNumber(e.V, e.U); !ok2 || got2 != want {
				t.Fatalf("%s: TrussNumber(%d,%d) not symmetric", name, e.V, e.U)
			}
			if ix.EdgeTruss(int32(id)) != want {
				t.Fatalf("%s: EdgeTruss(%d) != %d", name, id, want)
			}
		}
		// Absent and out-of-range edges.
		if _, ok := ix.TrussNumber(0, 0); ok {
			t.Fatalf("%s: self-loop lookup succeeded", name)
		}
		if _, ok := ix.TrussNumber(1<<31, 0); ok {
			t.Fatalf("%s: out-of-range lookup succeeded", name)
		}
	}
}

func TestHistogramAndClasses(t *testing.T) {
	for name, g := range fixtures() {
		r := core.Decompose(g)
		ix := Build(r)
		if got, want := ix.Histogram(), r.ClassSizes(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Histogram() = %v want %v", name, got, want)
		}
		if ix.KMax() != r.KMax {
			t.Fatalf("%s: KMax() = %d want %d", name, ix.KMax(), r.KMax)
		}
		if ix.NumEdges() != g.NumEdges() {
			t.Fatalf("%s: NumEdges() = %d want %d", name, ix.NumEdges(), g.NumEdges())
		}
		for k := int32(0); k <= r.KMax+1; k++ {
			if got, want := ix.Class(k), r.Class(k); !sameInt32s(got, want) {
				t.Fatalf("%s: Class(%d) = %v want %v", name, k, got, want)
			}
			if got, want := int64(len(ix.Class(k))), ix.ClassSize(k); got != want {
				t.Fatalf("%s: ClassSize(%d) = %d want %d", name, k, want, got)
			}
			got := append([]int32(nil), ix.TrussEdges(k)...)
			want := r.TrussEdges(k)
			sortInt32s(got)
			if !sameInt32s(got, want) {
				t.Fatalf("%s: TrussEdges(%d) mismatch", name, k)
			}
			if ix.TrussSize(k) != len(want) {
				t.Fatalf("%s: TrussSize(%d) = %d want %d", name, k, ix.TrussSize(k), len(want))
			}
		}
		// Every edge in TrussEdges(k) must have phi >= k, in descending
		// phi order (the prefix property that makes T_k O(1) to slice).
		for k := int32(2); k <= r.KMax; k++ {
			prev := int32(1 << 30)
			for _, id := range ix.TrussEdges(k) {
				p := ix.EdgeTruss(id)
				if p < k || p > prev {
					t.Fatalf("%s: TrussEdges(%d) not a phi-descending prefix", name, k)
				}
				prev = p
			}
		}
	}
}

func TestTopClasses(t *testing.T) {
	g := gen.PaperExample()
	ix := Build(core.Decompose(g))
	all := ix.TopClasses(0)
	// The paper's example has classes 2, 3, 4, 5 — top-down order.
	wantK := []int32{5, 4, 3, 2}
	if len(all) != len(wantK) {
		t.Fatalf("TopClasses(0) returned %d classes, want %d", len(all), len(wantK))
	}
	for i, c := range all {
		if c.K != wantK[i] {
			t.Fatalf("TopClasses(0)[%d].K = %d want %d", i, c.K, wantK[i])
		}
		if !sameInt32s(c.Edges, ix.Class(c.K)) {
			t.Fatalf("TopClasses(0)[%d].Edges != Class(%d)", i, c.K)
		}
	}
	top2 := ix.TopClasses(2)
	if len(top2) != 2 || top2[0].K != 5 || top2[1].K != 4 {
		t.Fatalf("TopClasses(2) = %v", top2)
	}
	if got := Build(core.Decompose(graph.FromEdges(nil))).TopClasses(3); got != nil {
		t.Fatalf("TopClasses on empty graph = %v", got)
	}
}

func TestCommunitiesMatchDetect(t *testing.T) {
	for name, g := range fixtures() {
		r := core.Decompose(g)
		ix := Build(r)
		for k := int32(3); k <= r.KMax; k++ {
			want := community.Detect(r, k)
			if got := ix.CommunityCount(k); got != len(want) {
				t.Fatalf("%s k=%d: CommunityCount = %d want %d", name, k, got, len(want))
			}
			for c, w := range want {
				got, ok := ix.Community(k, c)
				if !ok || !sameInt32s(got, w.Edges) {
					t.Fatalf("%s k=%d: Community(%d) = %v,%v want %v", name, k, c, got, ok, w.Edges)
				}
				if vs := ix.Vertices(got); !reflect.DeepEqual(vs, w.Vertices) {
					t.Fatalf("%s k=%d: Vertices(comm %d) = %v want %v", name, k, c, vs, w.Vertices)
				}
			}
			if _, ok := ix.Community(k, len(want)); ok {
				t.Fatalf("%s k=%d: Community out of range succeeded", name, k)
			}
		}
	}
}

func TestCommunityOf(t *testing.T) {
	for name, g := range fixtures() {
		r := core.Decompose(g)
		ix := Build(r)
		for k := int32(3); k <= r.KMax; k++ {
			want := community.Detect(r, k)
			// memberOf[id] = the Detect community containing edge id.
			memberOf := map[int32][]int32{}
			for _, c := range want {
				for _, id := range c.Edges {
					memberOf[id] = c.Edges
				}
			}
			for id := int32(0); id < int32(g.NumEdges()); id++ {
				e := g.Edge(id)
				got, ok := ix.CommunityOf(e.U, e.V, k)
				if r.Phi[id] < k {
					if ok {
						t.Fatalf("%s k=%d: CommunityOf%v succeeded below truss", name, k, e)
					}
					continue
				}
				if !ok || !sameInt32s(got, memberOf[id]) {
					t.Fatalf("%s k=%d: CommunityOf%v mismatch", name, k, e)
				}
			}
		}
		// Below the valid range and above kmax.
		if g.NumEdges() > 0 {
			e := g.Edge(0)
			if _, ok := ix.CommunityOf(e.U, e.V, 2); ok {
				t.Fatalf("%s: CommunityOf at k=2 succeeded", name)
			}
			if _, ok := ix.CommunityOf(e.U, e.V, r.KMax+1); ok {
				t.Fatalf("%s: CommunityOf above kmax succeeded", name)
			}
		}
	}
}

// TestParallelBuildAgrees checks the index is identical regardless of
// which decomposer produced the Result (the server builds with the
// parallel decomposer).
func TestParallelBuildAgrees(t *testing.T) {
	g := gen.Community(6, 15, 0.7, 2, 21)
	a := Build(core.Decompose(g))
	b := Build(core.DecomposeParallel(g, 4))
	if !reflect.DeepEqual(a.Histogram(), b.Histogram()) {
		t.Fatalf("histograms differ between serial and parallel build")
	}
	for k := int32(3); k <= a.KMax(); k++ {
		if a.CommunityCount(k) != b.CommunityCount(k) {
			t.Fatalf("community counts differ at k=%d", k)
		}
		for c := 0; c < a.CommunityCount(k); c++ {
			ca, _ := a.Community(k, c)
			cb, _ := b.Community(k, c)
			if !sameInt32s(ca, cb) {
				t.Fatalf("community %d differs at k=%d", c, k)
			}
		}
	}
}

func TestFootprintBytes(t *testing.T) {
	ix := Build(core.Decompose(gen.PaperExample()))
	if ix.FootprintBytes() <= 0 {
		t.Fatalf("FootprintBytes = %d, want > 0", ix.FootprintBytes())
	}
}

func sameInt32s(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sortInt32s(a []int32) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// referenceBuild is the original serial construction, kept as the oracle
// for buildLevels: one triangle.ForEach pass buckets the triangles by
// their minimum truss number, and every level is snapshotted by grouping
// T_k's edges by union-find root through a map, sorting each group, and
// sorting the groups largest first.
func referenceBuild(r *core.Result) *TrussIndex {
	ix := &TrussIndex{g: r.G, phi: append([]int32(nil), r.Phi...), kmax: r.KMax}
	ix.initArrays()
	ix.levels = make([]level, ix.kmax+1)
	if ix.kmax < 3 {
		return ix
	}
	buckets := make([][]int32, ix.kmax+1)
	triangle.ForEach(ix.g, func(e1, e2, e3 int32) {
		if k := min(ix.phi[e1], ix.phi[e2], ix.phi[e3]); k >= 3 {
			buckets[k] = append(buckets[k], e1, e2, e3)
		}
	})
	uf := dsu.New(len(ix.phi))
	for k := ix.kmax; k >= 3; k-- {
		tris := buckets[k]
		for i := 0; i < len(tris); i += 3 {
			uf.Union(tris[i], tris[i+1])
			uf.Union(tris[i], tris[i+2])
		}
		ix.levels[k] = referenceSnapshot(ix, k, uf)
	}
	return ix
}

// referenceSnapshot freezes the union-find state into the community
// table for level k (T_k is the prefix byPhi[:cnt[k]]).
func referenceSnapshot(ix *TrussIndex, k int32, uf *dsu.UnionFind) level {
	nk := ix.cnt[k]
	rootComm := map[int32]int32{}
	var groups [][]int32
	for i := int32(0); i < nk; i++ {
		e := ix.byPhi[i]
		r := uf.Find(e)
		c, ok := rootComm[r]
		if !ok {
			c = int32(len(groups))
			rootComm[r] = c
			groups = append(groups, nil)
		}
		groups[c] = append(groups[c], e)
	}
	for _, gset := range groups {
		sort.Slice(gset, func(i, j int) bool { return gset[i] < gset[j] })
	}
	sort.Slice(groups, func(i, j int) bool {
		if len(groups[i]) != len(groups[j]) {
			return len(groups[i]) > len(groups[j])
		}
		return groups[i][0] < groups[j][0]
	})
	lv := level{
		edgeOrder: make([]int32, 0, nk),
		commOff:   make([]int32, 1, len(groups)+1),
		commIdx:   make([]int32, nk),
	}
	for c, gset := range groups {
		for _, e := range gset {
			lv.commIdx[ix.pos[e]] = int32(c)
		}
		lv.edgeOrder = append(lv.edgeOrder, gset...)
		lv.commOff = append(lv.commOff, int32(len(lv.edgeOrder)))
	}
	return lv
}

// buildWith is Build on an explicit number of workers.
func buildWith(r *core.Result, workers int) *TrussIndex {
	ix := &TrussIndex{g: r.G, phi: append([]int32(nil), r.Phi...), kmax: r.KMax}
	ix.initArrays()
	ix.buildLevels(workers)
	return ix
}

// chunkyGraph spans 16 rank chunks and, through its planted cliques, 24
// levels.
func chunkyGraph() *graph.Graph {
	const s = 5
	return gen.WithPlantedCliques(gen.RMAT(12, 6, 0.57, 0.19, 0.19, s), []int{24, 16, 10}, s)
}

// TestBuildMatchesReference: the chunked two-pass bucketing and the
// counting snapshot build exactly the reference tables for every worker
// count, and so does a Patch step from the result, both one that keeps
// the top levels and one whose delta reaches kmax.
func TestBuildMatchesReference(t *testing.T) {
	workers := []int{1, 2, 3, 8}
	graphs := fixtures()
	graphs["rmat-cliques"] = chunkyGraph()
	for name, g := range graphs {
		r := core.Decompose(g)
		want := referenceBuild(r)
		for _, w := range workers {
			t.Run(fmt.Sprintf("%s/workers=%d", name, w), func(t *testing.T) {
				sameIndex(t, buildWith(r, w), want)
			})
		}
	}

	g := chunkyGraph()
	r := core.Decompose(g)
	top := r.Class(r.KMax)[0]
	batches := map[string]dynamic.Batch{
		"low": {
			Adds: []graph.Edge{{U: 1, V: 4000}, {U: 1, V: 4001}, {U: 4000, V: 4001}},
			Dels: []graph.Edge{g.Edge(r.Class(3)[0]), g.Edge(r.Class(5)[0])},
		},
		"kmax": {Dels: []graph.Edge{g.Edge(top)}},
	}
	for name, batch := range batches {
		res, err := dynamic.Update(context.Background(), g, r.Phi, batch, dynamic.Config{})
		if err != nil {
			t.Fatal(err)
		}
		want := referenceBuild(&core.Result{G: res.G, Phi: res.Phi, KMax: res.KMax})
		for _, w := range workers {
			t.Run(fmt.Sprintf("patch-%s/workers=%d", name, w), func(t *testing.T) {
				got := buildWith(r, w).patch(res.G, res.Phi, res.KMax, res.Remap, res.Changed, w)
				sameIndex(t, got, want)
			})
		}
	}
}

// FuzzBuildLevels decodes its input as edges with 16-bit endpoints, four
// bytes each, so vertex IDs spread over many rank chunks, decomposes the
// graph, and checks the construction against referenceBuild for one to
// four workers.
func FuzzBuildLevels(f *testing.F) {
	enc := func(edges ...[2]uint16) []byte {
		var b []byte
		for _, e := range edges {
			b = binary.LittleEndian.AppendUint16(b, e[0])
			b = binary.LittleEndian.AppendUint16(b, e[1])
		}
		return b
	}
	clique := func(vs ...uint16) [][2]uint16 {
		var es [][2]uint16
		for i := range vs {
			for j := i + 1; j < len(vs); j++ {
				es = append(es, [2]uint16{vs[i], vs[j]})
			}
		}
		return es
	}
	f.Add(enc(clique(0, 1, 2, 3)...))
	f.Add(enc(append(clique(5, 700, 1400, 30000, 50000, 65535), clique(700, 1400, 2, 3)...)...))
	var paper [][2]uint16
	for _, e := range gen.PaperExample().Edges() {
		paper = append(paper, [2]uint16{uint16(e.U * 257), uint16(e.V * 257)})
	}
	f.Add(enc(paper...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var edges []graph.Edge
		for i := 0; i+4 <= len(data); i += 4 {
			edges = append(edges, graph.Edge{
				U: uint32(binary.LittleEndian.Uint16(data[i:])),
				V: uint32(binary.LittleEndian.Uint16(data[i+2:])),
			})
		}
		r := core.Decompose(graph.FromEdges(edges))
		want := referenceBuild(r)
		for w := 1; w <= 4; w++ {
			sameIndex(t, buildWith(r, w), want)
		}
	})
}
