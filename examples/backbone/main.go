// Backbone extraction: the top-down use case of Section 6. Applications
// that want only the heart of a network — the k-trusses with the largest
// k — should not pay for a full decomposition. The top-down algorithm
// upper-bounds every edge's truss number (Procedure 6), then computes just
// the top-t classes from kmax downward.
//
// Run with: go run ./examples/backbone
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	truss "repro"
	"repro/internal/gen"
)

func main() {
	// An internet-topology-like graph: heavy-tailed RMAT plus dense
	// peering meshes (cliques) among core routers.
	g := gen.WithPlantedCliques(gen.RMAT(13, 6, 0.59, 0.19, 0.19, 11), []int{30, 22, 16}, 11)
	fmt.Printf("topology: %d vertices, %d edges\n\n", g.NumVertices(), g.NumEdges())

	const topT = 3
	d, err := truss.Run(context.Background(), truss.FromGraph(g),
		truss.WithEngine(truss.EngineTopDown),
		truss.WithTopT(topT))
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()
	res, _ := truss.AsTopDown(d) // kinit trace + per-class sizes

	fmt.Printf("kmax = %d; top-%d classes:\n", res.KMax, topT)
	var ks []int32
	for k := range res.ClassSizes {
		if k > res.KMax-topT && res.ClassSizes[k] > 0 {
			ks = append(ks, k)
		}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] > ks[j] })
	for _, k := range ks {
		fmt.Printf("  |Phi_%d| = %d\n", k, res.ClassSizes[k])
	}
	if res.Trace.KInitUsed {
		fmt.Printf("\n(kinit shortcut fired at k=%d: one in-memory pass covered every class above it)\n",
			res.Trace.KInit)
	}

	// Materialize the backbone: edges with truss number > kmax - topT.
	phi, err := res.PhiMap()
	if err != nil {
		log.Fatal(err)
	}
	var backboneEdges []truss.Edge
	for key, k := range phi {
		if k > res.KMax-topT {
			backboneEdges = append(backboneEdges, edgeFromKey(key))
		}
	}
	backbone := truss.FromEdges(backboneEdges)
	fmt.Printf("\nbackbone (top-%d trusses): %d edges, CC %.2f — vs %.2f for the whole topology\n",
		topT, backbone.NumEdges(),
		truss.ClusteringCoefficient(backbone), truss.ClusteringCoefficient(g))

	// Cross-check against a full in-memory decomposition.
	fd, err := truss.Run(context.Background(), truss.FromGraph(g))
	if err != nil {
		log.Fatal(err)
	}
	full, _ := truss.AsInMemory(fd)
	for key, k := range phi {
		e := edgeFromKey(key)
		id, ok := g.EdgeID(e.U, e.V)
		if !ok || (k > 2 && full.Phi[id] != k) {
			log.Fatalf("backbone edge %v: top-down phi=%d, full phi=%d", e, k, full.Phi[id])
		}
	}
	fmt.Println("top-down classes agree with the full decomposition ✓")
}

func edgeFromKey(key uint64) truss.Edge {
	return truss.Edge{U: uint32(key >> 32), V: uint32(key)}
}
