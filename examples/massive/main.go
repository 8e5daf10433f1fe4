// Massive-network decomposition: the paper's headline scenario. A graph
// too large for the memory budget is decomposed bottom-up from disk
// (Algorithms 3-4): LowerBounding partitions the graph into
// memory-sized neighborhood subgraphs, bounds every edge's truss number,
// and strips the 2-class; the bottom-up stage then peels one k-class per
// round from a small candidate subgraph. Every byte moved to or from disk
// is counted in the Aggarwal-Vitter I/O model.
//
// Run with: go run ./examples/massive
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	truss "repro"
	"repro/internal/gen"
)

func main() {
	// A heavy-tailed web-like graph (RMAT) with planted dense subgraphs.
	g := gen.WithPlantedCliques(gen.RMAT(14, 6, 0.57, 0.19, 0.19, 3), []int{40, 25}, 3)
	fmt.Printf("graph: %d vertices, %d edges (adjacency form: %d entries)\n",
		g.NumVertices(), g.NumEdges(), 2*g.NumEdges())

	dir, err := os.MkdirTemp("", "massive")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "graph.bin")
	if err := truss.SaveGraph(path, g); err != nil {
		log.Fatal(err)
	}
	fi, _ := os.Stat(path)
	fmt.Printf("on disk: %s (%d bytes)\n\n", path, fi.Size())

	// Budget: one third of the graph's adjacency entries — the graph
	// cannot be held in memory, so the external machinery must partition.
	// The file streams straight into the engine's input spool (never
	// materialized in RAM), the context would let us cancel a multi-hour
	// run, and the progress observer watches the bottom-up rounds.
	budget := int64(2*g.NumEdges()) / 3
	var st truss.IOStats
	d, err := truss.Run(context.Background(), truss.FromFile(path),
		truss.WithEngine(truss.EngineBottomUp),
		truss.WithBudget(budget),
		truss.WithTempDir(dir),
		truss.WithStats(&st),
		truss.WithProgress(func(p truss.Progress) {
			if p.Stage == truss.StageLevel {
				fmt.Printf("  [progress] peeling class k=%d\n", p.K)
			}
		}))
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()
	res, _ := truss.AsBottomUp(d) // trace + disk-resident classes

	fmt.Printf("memory budget:        %d adjacency entries (%.0f%% of graph)\n",
		budget, 100*float64(budget)/float64(2*g.NumEdges()))
	fmt.Printf("kmax:                 %d\n", res.KMax)
	fmt.Printf("lower-bound passes:   %d\n", res.Trace.LBIterations)
	fmt.Printf("candidate rounds:     %d (%d oversized -> Procedure 9)\n",
		res.Trace.Rounds, res.Trace.OversizeRounds)
	fmt.Printf("disk traffic:         %d MB read, %d MB written\n",
		st.BytesRead()>>20, st.BytesWritten()>>20)
	fmt.Printf("I/Os (4KB blocks):    %d  (graph itself is %d blocks)\n\n",
		st.IOs(4096), (fi.Size()+4095)/4096)

	fmt.Println("largest classes:")
	printed := 0
	for k := res.KMax; k >= 2 && printed < 8; k-- {
		if n := res.ClassSizes[k]; n > 0 {
			fmt.Printf("  |Phi_%d| = %d\n", k, n)
			printed++
		}
	}

	// Check every class against the in-memory algorithm.
	want, err := truss.Run(context.Background(), truss.FromGraph(g))
	if err != nil {
		log.Fatal(err)
	}
	if want.KMax() != res.KMax {
		log.Fatalf("kmax mismatch: external %d vs in-memory %d", res.KMax, want.KMax())
	}
	for k, n := range want.Histogram() {
		if res.ClassSizes[int32(k)] != n {
			log.Fatalf("|Phi_%d| mismatch: external %d vs in-memory %d", k, res.ClassSizes[int32(k)], n)
		}
	}
	fmt.Println("\nevery class agrees with the in-memory algorithm ✓")
}
