package truss_test

import (
	"context"
	"fmt"
	"log"

	truss "repro"
)

// ExampleRun decomposes a graph through the unified entry point: any of
// the paper's five algorithms (plus the parallel extension) runs behind
// the same call, returns the same Decomposition interface, and honors the
// context for cancellation.
func ExampleRun() {
	g := truss.FromEdges([]truss.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, // 4-clique on 0..3
		{U: 1, V: 2}, {U: 1, V: 3}, {U: 2, V: 3},
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 3, V: 5}, // pendant triangle
	})
	d, err := truss.Run(context.Background(), truss.FromGraph(g),
		truss.WithEngine(truss.EngineInMem))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer d.Close()
	fmt.Println("kmax:", d.KMax())
	hist := d.Histogram()
	for k := int32(3); k <= d.KMax(); k++ {
		fmt.Printf("|Phi_%d| = %d\n", k, hist[k])
	}
	// Output:
	// kmax: 4
	// |Phi_3| = 3
	// |Phi_4| = 6
}

// ExampleAsInMemory decomposes a small graph, a 4-clique with a pendant
// triangle hanging off it, and unwraps the in-memory Result to list its
// k-classes.
func ExampleAsInMemory() {
	b := truss.NewBuilder(8)
	// 4-clique on 0..3.
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	b.AddEdge(1, 2)
	b.AddEdge(1, 3)
	b.AddEdge(2, 3)
	// Pendant triangle 3-4-5.
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	b.AddEdge(3, 5)
	g := b.Build()

	d, err := truss.Run(context.Background(), truss.FromGraph(g))
	if err != nil {
		log.Fatal(err)
	}
	res, _ := truss.AsInMemory(d)
	fmt.Println("kmax:", res.KMax)
	for k := int32(3); k <= res.KMax; k++ {
		fmt.Printf("|Phi_%d| = %d\n", k, len(res.Class(k)))
	}
	// Output:
	// kmax: 4
	// |Phi_3| = 3
	// |Phi_4| = 6
}

// ExampleResult_Truss extracts the innermost truss of a graph.
func ExampleResult_Truss() {
	g := truss.FromEdges([]truss.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}, // triangle
		{U: 2, V: 3}, // tail
	})
	d, err := truss.Run(context.Background(), truss.FromGraph(g))
	if err != nil {
		log.Fatal(err)
	}
	res, _ := truss.AsInMemory(d)
	t3 := res.Truss(3)
	fmt.Println("3-truss edges:", t3.NumEdges())
	fmt.Println("tail kept:", t3.HasEdge(2, 3))
	// Output:
	// 3-truss edges: 3
	// tail kept: false
}

// ExampleCommunities splits two cliques bridged by one edge into separate
// triangle-connected communities.
func ExampleCommunities() {
	b := truss.NewBuilder(21)
	for i := uint32(0); i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			b.AddEdge(i, j)       // clique A: 0..4
			b.AddEdge(10+i, 10+j) // clique B: 10..14
		}
	}
	b.AddEdge(4, 10) // bridge
	d, err := truss.Run(context.Background(), truss.FromGraph(b.Build()))
	if err != nil {
		log.Fatal(err)
	}
	res, _ := truss.AsInMemory(d)
	comms := truss.Communities(res, 4)
	fmt.Println("communities:", len(comms))
	fmt.Println("sizes:", len(comms[0].Vertices), len(comms[1].Vertices))
	// Output:
	// communities: 2
	// sizes: 5 5
}

// ExampleBuildIndex freezes a decomposition into a query index and asks
// it for truss numbers and the class histogram — the online-serving path
// (`trussd serve` exposes the same queries over HTTP).
func ExampleBuildIndex() {
	b := truss.NewBuilder(8)
	// 4-clique on 0..3 with a pendant triangle 3-4-5.
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	b.AddEdge(1, 2)
	b.AddEdge(1, 3)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	b.AddEdge(3, 5)

	d, err := truss.Run(context.Background(), truss.FromGraph(b.Build()))
	if err != nil {
		log.Fatal(err)
	}
	res, _ := truss.AsInMemory(d)
	ix := truss.BuildIndex(res)
	k, _ := ix.TrussNumber(0, 1) // clique edge
	fmt.Println("phi(0,1):", k)
	k, _ = ix.TrussNumber(3, 4) // pendant-triangle edge
	fmt.Println("phi(3,4):", k)
	for _, c := range ix.TopClasses(2) {
		fmt.Printf("|Phi_%d| = %d\n", c.K, len(c.Edges))
	}
	// Output:
	// phi(0,1): 4
	// phi(3,4): 3
	// |Phi_4| = 6
	// |Phi_3| = 3
}

// ExampleBuildIndexFrom indexes an external-memory decomposition by
// streaming its disk-resident result — the path that makes the paper's
// out-of-core algorithms servable — and queries it through the unified
// Querier surface.
func ExampleBuildIndexFrom() {
	ctx := context.Background()
	b := truss.NewBuilder(8)
	// 4-clique on 0..3 with a pendant triangle 3-4-5.
	for _, e := range [][2]uint32{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5}, {3, 5}} {
		b.AddEdge(e[0], e[1])
	}
	d, err := truss.Run(ctx, truss.FromGraph(b.Build()),
		truss.WithEngine(truss.EngineBottomUp)) // result lives in a spool
	if err != nil {
		log.Fatal(err)
	}
	ix, err := truss.BuildIndexFrom(ctx, d) // reconstructed from the stream
	if err != nil {
		log.Fatal(err)
	}
	d.Close() // the index no longer needs the spool

	q := truss.QueryIndex(ix)
	k, _, _ := q.TrussNumber(ctx, 0, 1)
	fmt.Println("phi(0,1):", k)
	seq, errf := q.KTrussEdges(ctx, 4)
	n := 0
	for range seq {
		n++
	}
	if err := errf(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("4-truss edges:", n)
	// Output:
	// phi(0,1): 4
	// 4-truss edges: 6
}

// ExampleIndex_CommunityOf looks up the k-truss community around a single
// edge in O(answer) time: two cliques bridged by an edge stay separate
// communities, and the bridge belongs to neither.
func ExampleIndex_CommunityOf() {
	b := truss.NewBuilder(21)
	for i := uint32(0); i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			b.AddEdge(i, j)       // clique A: 0..4
			b.AddEdge(10+i, 10+j) // clique B: 10..14
		}
	}
	b.AddEdge(4, 10) // bridge
	d, err := truss.Run(context.Background(), truss.FromGraph(b.Build()))
	if err != nil {
		log.Fatal(err)
	}
	res, _ := truss.AsInMemory(d)
	ix := truss.BuildIndex(res)

	edges, ok := ix.CommunityOf(0, 1, 4)
	fmt.Println("community of (0,1):", len(edges), "edges over", len(ix.Vertices(edges)), "vertices")
	fmt.Println("found:", ok)
	_, ok = ix.CommunityOf(4, 10, 4) // the bridge is in no 4-truss
	fmt.Println("bridge in a 4-truss community:", ok)
	// Output:
	// community of (0,1): 10 edges over 5 vertices
	// found: true
	// bridge in a 4-truss community: false
}

// ExampleCoreDecompose contrasts the core and truss numbers of a graph
// where they differ.
func ExampleCoreDecompose() {
	// A 6-cycle: every vertex has degree 2 (cmax = 2) but there are no
	// triangles at all (kmax = 2): the truss sees through the cycle.
	b := truss.NewBuilder(6)
	for i := uint32(0); i < 6; i++ {
		b.AddEdge(i, (i+1)%6)
	}
	g := b.Build()
	d, err := truss.Run(context.Background(), truss.FromGraph(g))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("cmax:", truss.CoreDecompose(g).CMax)
	fmt.Println("kmax:", d.KMax())
	// Output:
	// cmax: 2
	// kmax: 2
}
