package embu

import (
	"context"
	"errors"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/extsort"
	"repro/internal/gio"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/triangle"
)

// Decompose runs the full bottom-up external-memory truss decomposition
// (Algorithm 4) over a disk-resident edge stream. n is the vertex-ID space
// (max vertex ID + 1); pass n <= 0 to have it derived with one extra scan.
// The context is checked between LowerBounding iterations, partition
// rounds, and Procedure 9 passes; on cancellation the returned error is
// ctx.Err() and all result spools are removed.
func Decompose(ctx context.Context, input *gio.Spool[gio.EdgeRec], n int, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if n <= 0 {
		maxV := int64(-1)
		err := input.ForEach(func(r gio.EdgeRec) error {
			if int64(r.U) > maxV {
				maxV = int64(r.U)
			}
			if int64(r.V) > maxV {
				maxV = int64(r.V)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		n = int(maxV) + 1
	}

	classes, err := gio.NewSpool[gio.EdgeAux](cfg.TempDir, "classes", gio.EdgeAuxCodec{}, cfg.Stats)
	if err != nil {
		return nil, err
	}
	cwr, err := classes.Create()
	if err != nil {
		return nil, err
	}
	cw := &classWriter{w: cwr, sizes: map[int32]int64{}}
	res := &Result{Classes: classes, ClassSizes: cw.sizes, NumVertices: n}
	fail := func(err error) (*Result, error) {
		cwr.Close()
		classes.Remove()
		return nil, err
	}

	gnew, err := LowerBound(ctx, input, n, cfg, cw, &res.Trace)
	if err != nil {
		return fail(err)
	}
	defer gnew.Remove()

	if err := bottomUpClasses(ctx, gnew, n, cfg, cw, &res.Trace); err != nil {
		return fail(err)
	}
	if err := cwr.Close(); err != nil {
		classes.Remove()
		return nil, err
	}
	res.KMax = cw.kmax
	return res, nil
}

// DecomposeGraph is a convenience wrapper: it spools g's edges to disk and
// runs Decompose, so tests and benchmarks can exercise the external
// algorithm on in-memory graphs.
func DecomposeGraph(ctx context.Context, g *graph.Graph, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	sp, err := gio.NewSpool[gio.EdgeRec](cfg.TempDir, "input", gio.EdgeCodec{}, cfg.Stats)
	if err != nil {
		return nil, err
	}
	defer sp.Remove()
	w, err := sp.Create()
	if err != nil {
		return nil, err
	}
	for _, e := range g.Edges() {
		if err := w.Write(gio.EdgeRec{U: e.U, V: e.V}); err != nil {
			w.Close()
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return Decompose(ctx, sp, g.NumVertices(), cfg)
}

// bottomUpClasses is the second stage (Algorithm 4, Steps 2-9): for k = 3
// upward, extract the candidate subgraph NS(U_k) from Gnew, peel Phi_k out
// of it, and delete Phi_k from Gnew.
func bottomUpClasses(ctx context.Context, gnew *gio.Spool[gio.EdgeAux2], n int, cfg Config, cw *classWriter, trace *Trace) error {
	k := int32(3)
	for gnew.Count() > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Scan 1: the smallest lower bound tells us the next k with a
		// possibly non-empty class (phi is a lower bound on the truss
		// number, so classes below min phi are empty).
		minPhi := int32(math.MaxInt32)
		if err := gnew.ForEach(func(r gio.EdgeAux2) error {
			if r.A < minPhi {
				minPhi = r.A
			}
			return nil
		}); err != nil {
			return err
		}
		if minPhi > k {
			k = minPhi
		}
		trace.Rounds++
		if cfg.OnRound != nil {
			cfg.OnRound(k)
		}

		// Scan 2: U_k = endpoints of edges whose bound admits class k.
		uk := graph.NewVertexSet(n)
		if err := gnew.ForEach(func(r gio.EdgeAux2) error {
			if r.A <= k {
				uk.Add(r.U)
				uk.Add(r.V)
			}
			return nil
		}); err != nil {
			return err
		}

		// Scan 3: extract H = NS(U_k). Collect in memory while it fits;
		// spill to a spool for Procedure 9 otherwise.
		var mem []gio.EdgeAux2
		var spill *gio.Spool[gio.EdgeAux2]
		var spillW *gio.SpoolWriter[gio.EdgeAux2]
		capEdges := int(cfg.Budget / 2) // e edges occupy 2e adjacency entries
		err := gnew.ForEach(func(r gio.EdgeAux2) error {
			if !uk.Contains(r.U) && !uk.Contains(r.V) {
				return nil
			}
			if spillW == nil && len(mem) < capEdges {
				mem = append(mem, r)
				return nil
			}
			if spillW == nil {
				var serr error
				spill, serr = gio.NewSpool[gio.EdgeAux2](cfg.TempDir, "candidate", gio.EdgeAux2Codec{}, cfg.Stats)
				if serr != nil {
					return serr
				}
				spillW, serr = spill.Create()
				if serr != nil {
					return serr
				}
				for _, m := range mem {
					if werr := spillW.Write(m); werr != nil {
						return werr
					}
				}
				mem = nil
			}
			return spillW.Write(r)
		})
		if err != nil {
			if spillW != nil {
				spillW.Close()
				spill.Remove()
			}
			return err
		}

		removed, err := gio.NewSpool[gio.EdgeRec](cfg.TempDir, "phik", gio.EdgeCodec{}, cfg.Stats)
		if err != nil {
			if spillW != nil {
				spillW.Close()
				spill.Remove()
			}
			return err
		}
		if spillW != nil {
			if err := spillW.Close(); err != nil {
				spill.Remove()
				removed.Remove()
				return err
			}
			trace.OversizeRounds++
			err = procedure9(ctx, spill, uk, n, k, cfg, cw, removed, trace)
			spill.Remove()
			if err != nil {
				removed.Remove()
				return err
			}
		} else {
			if err := procedure5(mem, uk, k, cw, removed); err != nil {
				removed.Remove()
				return err
			}
		}

		// Delete Phi_k from Gnew (chunked by the memory budget, as in the
		// paper's |Phi_k|/M analysis).
		if removed.Count() > 0 {
			if err := removeKeys(gnew, removed, cfg); err != nil {
				return err
			}
		}
		if err := removed.Remove(); err != nil {
			return err
		}
		k++
	}
	return nil
}

// procedure5 peels Phi_k from an in-memory candidate subgraph (Procedure 5):
// internal edges (both endpoints in U_k) whose support inside H is <= k-2
// are the k-class; removal cascades through shared triangles.
func procedure5(recs []gio.EdgeAux2, uk *graph.VertexSet, k int32, cw *classWriter, removed *gio.Spool[gio.EdgeRec]) error {
	if len(recs) == 0 {
		return nil
	}
	sg, _ := buildSubgraph(recs)
	internal := make([]bool, sg.NumEdges())
	for id, e := range sg.Edges() {
		internal[id] = uk.Contains(e.U) && uk.Contains(e.V)
	}
	p := core.NewPeeler(sg, triangle.Supports(sg))
	p.Restrict(internal)
	out := p.PeelTo(k - 2)

	rw, err := removed.Create()
	if err != nil {
		return err
	}
	for _, id := range out {
		e := sg.Edge(id)
		if err := cw.emit(e.U, e.V, k); err != nil {
			rw.Close()
			return err
		}
		if err := rw.Write(gio.EdgeRec{U: e.U, V: e.V}); err != nil {
			rw.Close()
			return err
		}
	}
	return rw.Close()
}

// procedure9 peels Phi_k from a candidate subgraph H that does not fit in
// memory. It alternates two kinds of passes:
//
//   - Local peel (the paper's Procedure 9): partition H's internal
//     vertices, load each part's neighborhood subgraph, and peel its
//     part-internal edges with full cascading. Supports of part-internal
//     edges are exact within H, so every removal is sound, and cascades
//     collapse inside each part, keeping the pass count small.
//   - Certification: the paper stops "when all remaining internal edges of
//     H have support greater than k-2", but a local pass that removes
//     nothing does not establish that — a deficient edge whose endpoints
//     straddle parts is not removable in any part that pass. When local
//     peeling stalls, this implementation computes the exact support of
//     every H edge with the partitioned accumulation of ExactSupports and
//     either certifies the fixpoint or removes the stragglers and resumes.
func procedure9(ctx context.Context, h *gio.Spool[gio.EdgeAux2], uk *graph.VertexSet, n int, k int32, cfg Config, cw *classWriter, removed *gio.Spool[gio.EdgeRec], trace *Trace) error {
	rw, err := removed.Create()
	if err != nil {
		return err
	}
	defer func() {
		if rw != nil {
			rw.Close()
		}
	}()
	emit := func(u, v uint32) error {
		if err := cw.emit(u, v, k); err != nil {
			return err
		}
		return rw.Write(gio.EdgeRec{U: u, V: v})
	}

	for pass := 0; ; pass++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		trace.Proc9Passes++
		// One local pass collapses within-part cascades cheaply; the
		// certification pass then removes every cross-part straggler in
		// one batch and decides termination.
		if err := LocalPeel(ctx, h, n, uk.Contains, nil, k-2, cfg, cfg.Seed+int64(pass), emit); err != nil {
			return err
		}
		nCert, err := certifyPass(ctx, h, uk, n, k, cfg, int64(1000*(pass+1)), emit)
		if err != nil {
			return err
		}
		if nCert == 0 {
			break
		}
	}
	w := rw
	rw = nil
	return w.Close()
}

// LocalPeel is one partitioned local peel over the disk-resident edge set
// h: the pass of Procedure 9 (threshold k-2) and of Procedure 10 (k-3).
// It partitions the active vertices randomly with seed under cfg.Budget,
// loads each part's neighborhood subgraph, and peels the part's removable
// internal edges whose support there is <= threshold, with cascades. Each
// removed edge is passed to emit (if non-nil) and deleted from h, whose
// record order is kept.
//
// active selects the vertices to partition; nil means every vertex with
// an edge in h. removable selects, by record, the part-internal edges that
// may be peeled; nil means all of them.
func LocalPeel(ctx context.Context, h *gio.Spool[gio.EdgeAux2], n int, active func(v uint32) bool, removable func(gio.EdgeAux2) bool, threshold int32, cfg Config, seed int64, emit func(u, v uint32) error) error {
	cfg = cfg.withDefaults()
	deg := make([]int32, n)
	if err := h.ForEach(func(r gio.EdgeAux2) error {
		deg[r.U]++
		deg[r.V]++
		return nil
	}); err != nil {
		return err
	}
	in := partition.Input{Degree: deg}
	if active != nil {
		in.Active = func(v uint32) bool { return deg[v] > 0 && active(v) }
	}
	parts := partition.Partition(in, partition.Config{Strategy: partition.Randomized, Budget: cfg.Budget, Seed: seed})
	if len(parts) == 0 {
		return nil
	}
	partOf := makePartIndex(n, parts)
	buckets, err := bucketByPart(h, len(parts), partOf, cfg)
	if err != nil {
		return err
	}
	defer removeSpools(buckets) // no-op on success; cleanup on abort
	passRemoved := map[uint64]bool{}
	for pi := range parts {
		if err := ctx.Err(); err != nil {
			return err
		}
		recs, err := buckets[pi].ReadAll()
		if err != nil {
			return err
		}
		if err := buckets[pi].Remove(); err != nil {
			return err
		}
		live := recs[:0]
		for _, r := range recs {
			if !passRemoved[r.Key()] {
				live = append(live, r)
			}
		}
		if len(live) == 0 {
			continue
		}
		sg, recOf := buildSubgraph(live)
		peelable := make([]bool, sg.NumEdges())
		for id, e := range sg.Edges() {
			peelable[id] = partOf[e.U] == int32(pi) && partOf[e.V] == int32(pi) &&
				(removable == nil || removable(live[recOf[id]]))
		}
		p := core.NewPeeler(sg, triangle.Supports(sg))
		p.Restrict(peelable)
		for _, id := range p.PeelTo(threshold) {
			e := sg.Edge(id)
			passRemoved[e.Key()] = true
			if emit != nil {
				if err := emit(e.U, e.V); err != nil {
					return err
				}
			}
		}
	}
	if len(passRemoved) == 0 {
		return nil
	}
	return rewriteWithout(h, passRemoved, cfg)
}

// certifyPass computes exact supports of every H edge and removes internal
// edges at or below k-2, returning how many were removed (0 certifies the
// fixpoint).
func certifyPass(ctx context.Context, h *gio.Spool[gio.EdgeAux2], uk *graph.VertexSet, n int, k int32, cfg Config, seedOffset int64, emit func(u, v uint32) error) (int64, error) {
	sups, err := ExactSupports(ctx, h, n, Config{
		Budget:   cfg.Budget,
		Strategy: partition.Randomized,
		Seed:     cfg.Seed + seedOffset,
		TempDir:  cfg.TempDir,
		Stats:    cfg.Stats,
	})
	if err != nil {
		return 0, err
	}
	viol, err := gio.NewSpool[gio.EdgeRec](cfg.TempDir, "viol", gio.EdgeCodec{}, cfg.Stats)
	if err != nil {
		sups.Remove()
		return 0, err
	}
	defer viol.Remove()
	vw, err := viol.Create()
	if err != nil {
		sups.Remove()
		return 0, err
	}
	err = sups.ForEach(func(r gio.EdgeAux) error {
		if r.Aux > k-2 || !uk.Contains(r.U) || !uk.Contains(r.V) {
			return nil
		}
		if err := emit(r.U, r.V); err != nil {
			return err
		}
		return vw.Write(gio.EdgeRec{U: r.U, V: r.V})
	})
	sups.Remove()
	if err != nil {
		vw.Close()
		return 0, err
	}
	if err := vw.Close(); err != nil {
		return 0, err
	}
	if viol.Count() > 0 {
		if err := removeKeys(h, viol, cfg); err != nil {
			return 0, err
		}
	}
	return viol.Count(), nil
}

// rewriteWithout rewrites sp dropping the keyed edges.
func rewriteWithout(sp *gio.Spool[gio.EdgeAux2], drop map[uint64]bool, cfg Config) error {
	next, err := gio.NewSpool[gio.EdgeAux2](cfg.TempDir, "rw", gio.EdgeAux2Codec{}, cfg.Stats)
	if err != nil {
		return err
	}
	nw, err := next.Create()
	if err != nil {
		next.Remove()
		return err
	}
	err = sp.ForEach(func(r gio.EdgeAux2) error {
		if drop[r.Key()] {
			return nil
		}
		return nw.Write(r)
	})
	if err != nil {
		nw.Close()
		next.Remove()
		return err
	}
	if err := nw.Close(); err != nil {
		next.Remove()
		return err
	}
	return sp.ReplaceWith(next)
}

// ExactSupports computes the exact support of every edge of the
// disk-resident edge set h (with respect to h itself), returning a spool of
// (u, v, sup) records. It uses the same shrinking-residual accumulation as
// LowerBounding: every triangle is counted at the unique (iteration, part)
// where its first edge becomes part-internal. The context is checked once
// per accumulation iteration and once per part.
func ExactSupports(ctx context.Context, h *gio.Spool[gio.EdgeAux2], n int, cfg Config) (*gio.Spool[gio.EdgeAux], error) {
	cfg = cfg.withDefaults()
	work, err := gio.NewSpool[gio.EdgeAux2](cfg.TempDir, "supwork", gio.EdgeAux2Codec{}, cfg.Stats)
	if err != nil {
		return nil, err
	}
	defer work.Remove()
	{
		w, err := work.Create()
		if err != nil {
			return nil, err
		}
		err = h.ForEach(func(r gio.EdgeAux2) error {
			return w.Write(gio.EdgeAux2{U: r.U, V: r.V, B: 0})
		})
		if err != nil {
			w.Close()
			return nil, err
		}
		if err := w.Close(); err != nil {
			return nil, err
		}
	}

	out, err := gio.NewSpool[gio.EdgeAux](cfg.TempDir, "sups", gio.EdgeAuxCodec{}, cfg.Stats)
	if err != nil {
		return nil, err
	}
	ow, err := out.Create()
	if err != nil {
		out.Remove()
		return nil, err
	}
	// Every early return below (I/O error or cancellation) must drop the
	// partial output spool.
	success := false
	defer func() {
		if ow != nil {
			ow.Close()
		}
		if !success {
			out.Remove()
		}
	}()

	fruitless := 0
	for iter := 0; work.Count() > 0; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Fast path: once the residual fits in the budget it forms a
		// single part whose neighborhood subgraph is the residual itself;
		// finish in memory without bucket files or sort runs.
		if work.Count()*2 <= cfg.Budget {
			recs, err := work.ReadAll()
			if err != nil {
				return nil, err
			}
			sg, recOf := buildSubgraph(recs)
			localSup := triangle.Supports(sg)
			for id, e := range sg.Edges() {
				rec := recs[recOf[id]]
				if err := ow.Write(gio.EdgeAux{U: e.U, V: e.V, Aux: rec.B + localSup[id]}); err != nil {
					return nil, err
				}
			}
			break
		}

		deg := make([]int32, n)
		if err := work.ForEach(func(r gio.EdgeAux2) error {
			deg[r.U]++
			deg[r.V]++
			return nil
		}); err != nil {
			return nil, err
		}
		parts := partition.Partition(
			partition.Input{Degree: deg},
			partition.Config{Strategy: partition.Randomized, Budget: cfg.Budget, Seed: cfg.Seed + int64(iter)},
		)
		partOf := makePartIndex(n, parts)
		buckets, err := bucketByPart(work, len(parts), partOf, cfg)
		if err != nil {
			return nil, err
		}
		defer removeSpools(buckets) // no-op on success; cleanup on abort
		sorter := extsort.NewSorter[gio.EdgeAux2](gio.EdgeAux2Codec{}, recLess, extsort.Config{
			Budget: int(cfg.Budget),
			Dir:    cfg.TempDir,
			Stats:  cfg.Stats,
		})
		defer sorter.Discard() // no-op once Sort hands runs to the iterator
		progress := false
		for pi := range parts {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			recs, err := buckets[pi].ReadAll()
			if err != nil {
				return nil, err
			}
			if err := buckets[pi].Remove(); err != nil {
				return nil, err
			}
			if len(recs) == 0 {
				continue
			}
			sg, recOf := buildSubgraph(recs)
			localSup := triangle.Supports(sg)
			for id, e := range sg.Edges() {
				rec := recs[recOf[id]]
				if partOf[e.U] == int32(pi) && partOf[e.V] == int32(pi) {
					if err := ow.Write(gio.EdgeAux{U: e.U, V: e.V, Aux: rec.B + localSup[id]}); err != nil {
						return nil, err
					}
					progress = true
					continue
				}
				up := gio.EdgeAux2{U: e.U, V: e.V, B: localSup[id]}
				if partOf[e.U] == int32(pi) {
					up.B += rec.B
				}
				if err := sorter.Push(up); err != nil {
					return nil, err
				}
			}
		}
		next, err := gio.NewSpool[gio.EdgeAux2](cfg.TempDir, "supwork", gio.EdgeAux2Codec{}, cfg.Stats)
		if err != nil {
			return nil, err
		}
		nw, err := next.Create()
		if err != nil {
			next.Remove()
			return nil, err
		}
		it, err := sorter.Sort()
		if err != nil {
			nw.Close()
			next.Remove()
			return nil, err
		}
		var pending *gio.EdgeAux2
		mergeErr := it.ForEach(func(rec gio.EdgeAux2) error {
			if pending != nil && pending.U == rec.U && pending.V == rec.V {
				merged := gio.EdgeAux2{U: rec.U, V: rec.V, B: pending.B + rec.B}
				pending = nil
				return nw.Write(merged)
			}
			if pending != nil {
				return errors.New("embu: unpaired support update")
			}
			r := rec
			pending = &r
			return nil
		})
		if mergeErr == nil && pending != nil {
			mergeErr = errors.New("embu: unpaired trailing support update")
		}
		if mergeErr != nil {
			nw.Close()
			next.Remove()
			return nil, mergeErr
		}
		if err := nw.Close(); err != nil {
			next.Remove()
			return nil, err
		}
		if err := work.ReplaceWith(next); err != nil {
			return nil, err
		}
		if progress {
			fruitless = 0
		} else if fruitless++; fruitless >= maxFruitlessIters {
			return nil, errors.New("embu: support computation stalled")
		}
	}
	w := ow
	ow = nil
	if err := w.Close(); err != nil {
		return nil, err
	}
	success = true
	return out, nil
}

// removeKeys deletes the edges listed in keys from sp, loading keys in
// budget-bounded chunks (each chunk costs one scan-and-rewrite of sp).
func removeKeys(sp *gio.Spool[gio.EdgeAux2], keys *gio.Spool[gio.EdgeRec], cfg Config) error {
	kr, err := keys.Open()
	if err != nil {
		return err
	}
	defer kr.Close()
	chunkCap := int(cfg.Budget)
	for {
		chunk := make(map[uint64]bool, 1024)
		for len(chunk) < chunkCap {
			rec, rerr := kr.Read()
			if errors.Is(rerr, io.EOF) {
				break
			}
			if rerr != nil {
				return rerr
			}
			chunk[rec.Edge().Key()] = true
		}
		if len(chunk) == 0 {
			return nil
		}
		next, err := gio.NewSpool[gio.EdgeAux2](cfg.TempDir, "gnew", gio.EdgeAux2Codec{}, cfg.Stats)
		if err != nil {
			return err
		}
		nw, err := next.Create()
		if err != nil {
			return err
		}
		err = sp.ForEach(func(r gio.EdgeAux2) error {
			if chunk[r.Key()] {
				return nil
			}
			return nw.Write(r)
		})
		if err != nil {
			nw.Close()
			return err
		}
		if err := nw.Close(); err != nil {
			return err
		}
		if err := sp.ReplaceWith(next); err != nil {
			return err
		}
		if len(chunk) < chunkCap {
			return nil
		}
	}
}
