package emtd

import (
	"context"
	"errors"
	"io"

	"repro/internal/core"
	"repro/internal/embu"
	"repro/internal/extsort"
	"repro/internal/gio"
	"repro/internal/graph"
	"repro/internal/triangle"
)

// Decompose runs the top-down external-memory truss decomposition
// (Algorithm 7) over a disk-resident edge stream: preparation via
// Algorithm 3 (exact supports, 2-class removed), UpperBounding, then per-k
// candidate rounds from kmax downward until the top-t classes are known
// (or every edge is classified when cfg.TopT == 0). The context is checked
// between preparation iterations, candidate rounds, and Procedure 10
// passes; on cancellation the returned error is ctx.Err() and all result
// spools are removed.
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

	classes, err := gio.NewSpool[gio.EdgeAux](cfg.TempDir, "tdclasses", gio.EdgeAuxCodec{}, cfg.Stats)
	if err != nil {
		return nil, err
	}
	cwr, err := classes.Create()
	if err != nil {
		return nil, err
	}
	res := &Result{Classes: classes, ClassSizes: map[int32]int64{}, NumVertices: n}
	emit := func(u, v uint32, k int32) error {
		res.ClassSizes[k]++
		return cwr.Write(gio.EdgeAux{U: u, V: v, Aux: k})
	}
	fail := func(err error) (*Result, error) {
		cwr.Close()
		classes.Remove()
		return nil, err
	}

	// Stage 1 (Algorithm 7, Step 1): Algorithm 3 computing sup(e); the
	// 2-class is established here as a byproduct.
	gnew2, lbTrace, err := embu.Prepare(ctx, input, n, cfg.embu(), func(u, v uint32) error {
		return emit(u, v, 2)
	})
	if err != nil {
		return fail(err)
	}
	res.Trace.LBIterations = lbTrace.LBIterations

	// Stage 2 (Procedure 6): upper bounds.
	gnew, err := upperBound(gnew2, cfg)
	gnew2.Remove()
	if err != nil {
		return fail(err)
	}
	defer gnew.Remove()

	// Stage 3: top-down rounds.
	if err := topDownRounds(ctx, gnew, n, cfg, res, emit); err != nil {
		return fail(err)
	}
	if err := cwr.Close(); err != nil {
		classes.Remove()
		return nil, err
	}
	return res, nil
}

// DecomposeGraph spools g's edges and runs Decompose (test/bench helper).
func DecomposeGraph(ctx context.Context, g *graph.Graph, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	sp, err := gio.NewSpool[gio.EdgeRec](cfg.TempDir, "tdinput", gio.EdgeCodec{}, cfg.Stats)
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

// roundScan is the per-round bookkeeping collected in one pass over the
// residual: counts of unclassified edges, the largest psi among them, and
// per-vertex aggregates for the kinit estimate.
type roundScan struct {
	unclassified int64
	maxPsi       int32
}

func scanResidual(gnew *gio.Spool[gio.EdgeRec5]) (roundScan, error) {
	var rs roundScan
	err := gnew.ForEach(func(r gio.EdgeRec5) error {
		if !r.Classified() {
			rs.unclassified++
			if r.Psi > rs.maxPsi {
				rs.maxPsi = r.Psi
			}
		}
		return nil
	})
	return rs, err
}

func topDownRounds(ctx context.Context, gnew *gio.Spool[gio.EdgeRec5], n int, cfg Config, res *Result, emit func(u, v uint32, k int32) error) error {
	var kmaxSeen int32

	stopK := func() int32 {
		if cfg.TopT <= 0 || kmaxSeen == 0 {
			return 2 // go all the way down to the 3-class
		}
		return kmaxSeen - int32(cfg.TopT)
	}

	rs, err := scanResidual(gnew)
	if err != nil {
		return err
	}
	if rs.unclassified == 0 {
		return nil
	}
	k := rs.maxPsi

	// Section 6.3 shortcut: find the smallest kinit whose candidate fits
	// in memory and decompose that candidate in one in-memory pass,
	// classifying every edge with truss number >= kinit at once.
	if !cfg.DisableKInit {
		done, err := kinitShortcut(ctx, gnew, n, cfg, res, emit, &kmaxSeen, &k)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}

	for k > stopK() {
		if err := ctx.Err(); err != nil {
			return err
		}
		rs, err := scanResidual(gnew)
		if err != nil {
			return err
		}
		if rs.unclassified == 0 {
			break
		}
		if rs.maxPsi < k {
			k = rs.maxPsi
		}
		if k <= stopK() || k < 3 {
			break
		}
		res.Trace.Rounds++
		if cfg.OnRound != nil {
			cfg.OnRound(k)
		}

		// U_k: endpoints of unclassified edges whose bound admits class k.
		uk := graph.NewVertexSet(n)
		if err := gnew.ForEach(func(r gio.EdgeRec5) error {
			if !r.Classified() && r.Psi >= k {
				uk.Add(r.U)
				uk.Add(r.V)
			}
			return nil
		}); err != nil {
			return err
		}

		// Extract H = NS(U_k); spill to Procedure 10 when oversized.
		var mem []gio.EdgeRec5
		var spill *gio.Spool[gio.EdgeRec5]
		var spillW *gio.SpoolWriter[gio.EdgeRec5]
		capEdges := int(cfg.Budget / 2)
		err = gnew.ForEach(func(r gio.EdgeRec5) error {
			if !uk.Contains(r.U) && !uk.Contains(r.V) {
				return nil
			}
			if spillW == nil && len(mem) < capEdges {
				mem = append(mem, r)
				return nil
			}
			if spillW == nil {
				var serr error
				spill, serr = gio.NewSpool[gio.EdgeRec5](cfg.TempDir, "tdcand", gio.EdgeRec5Codec{}, cfg.Stats)
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

		var phiK []graph.Edge
		if spillW != nil {
			if err := spillW.Close(); err != nil {
				spill.Remove()
				return err
			}
			res.Trace.OversizeRounds++
			phiK, err = procedure10(ctx, spill, n, k, cfg, &res.Trace)
			spill.Remove()
			if err != nil {
				return err
			}
		} else {
			phiK = procedure8(mem, k)
		}

		if len(phiK) > 0 {
			if kmaxSeen == 0 {
				kmaxSeen = k
				res.KMax = k
			}
			for _, e := range phiK {
				if err := emit(e.U, e.V, k); err != nil {
					return err
				}
			}
			if err := classifyEdges(gnew, phiK, k, cfg); err != nil {
				return err
			}
			if err := pruneClassified(gnew, n, cfg, &res.Trace); err != nil {
				return err
			}
		}
		k--
	}
	return nil
}

// procedure8 peels the k-class out of an in-memory candidate subgraph.
// Eligibility: an edge can be part of T_k only if it is classified (truss
// number > k) or unclassified with psi >= k; triangles containing an
// ineligible edge are never counted. Candidates (unclassified, psi >= k)
// with eligible support < k-2 are peeled; the survivors are Phi_k.
func procedure8(recs []gio.EdgeRec5, k int32) []graph.Edge {
	if len(recs) == 0 {
		return nil
	}
	edges := make([]graph.Edge, len(recs))
	for i, r := range recs {
		edges[i] = graph.Edge{U: r.U, V: r.V}
	}
	sg := graph.FromEdges(edges)
	byKey := make(map[uint64]gio.EdgeRec5, len(recs))
	for _, r := range recs {
		byKey[r.Key()] = r
	}
	m := sg.NumEdges()
	eligible := make([]bool, m)
	candidate := make([]bool, m)
	for id, e := range sg.Edges() {
		r := byKey[e.Key()]
		switch {
		case r.Classified():
			eligible[id] = true
		case r.Psi >= k:
			eligible[id] = true
			candidate[id] = true
		}
	}
	sup := make([]int32, m)
	triangle.ForEach(sg, func(e1, e2, e3 int32) {
		if eligible[e1] && eligible[e2] && eligible[e3] {
			sup[e1]++
			sup[e2]++
			sup[e3]++
		}
	})
	p := core.NewPeeler(sg, sup)
	for id := range eligible {
		if !eligible[id] {
			p.MarkDead(int32(id))
		}
	}
	p.Restrict(candidate)
	p.PeelTo(k - 3) // remove candidates with support < k-2

	var out []graph.Edge
	for id, e := range sg.Edges() {
		if candidate[id] && p.Alive(int32(id)) {
			out = append(out, e)
		}
	}
	return out
}

// procedure10 peels the k-class out of a candidate subgraph that does not
// fit in memory. Like the corrected Procedure 9, it verifies the support
// condition directly: each pass computes the exact support of every
// eligible edge (within the eligible subgraph, honoring the psi filter)
// with the partitioned accumulation of embu.ExactSupports, removes the
// candidates below the threshold, and stops when none remain; the
// surviving candidates are Phi_k.
func procedure10(ctx context.Context, h *gio.Spool[gio.EdgeRec5], n int, k int32, cfg Config, trace *Trace) ([]graph.Edge, error) {
	// E: the eligible subgraph, annotated with candidacy (A=1 candidate,
	// A=0 classified), kept sorted by edge key so support joins stream.
	sorter := extsort.NewSorter[gio.EdgeAux2](gio.EdgeAux2Codec{}, func(a, b gio.EdgeAux2) bool {
		if a.U != b.U {
			return a.U < b.U
		}
		return a.V < b.V
	}, extsort.Config{Budget: int(cfg.Budget), Dir: cfg.TempDir, Stats: cfg.Stats})
	defer sorter.Discard() // no-op once Sort hands runs to the iterator
	err := h.ForEach(func(r gio.EdgeRec5) error {
		switch {
		case r.Classified():
			return sorter.Push(gio.EdgeAux2{U: r.U, V: r.V, A: 0})
		case r.Psi >= k:
			return sorter.Push(gio.EdgeAux2{U: r.U, V: r.V, A: 1})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	elig, err := gio.NewSpool[gio.EdgeAux2](cfg.TempDir, "tdelig", gio.EdgeAux2Codec{}, cfg.Stats)
	if err != nil {
		return nil, err
	}
	defer elig.Remove()
	ew, err := elig.Create()
	if err != nil {
		return nil, err
	}
	it, err := sorter.Sort()
	if err != nil {
		ew.Close()
		return nil, err
	}
	if err := it.ForEach(ew.Write); err != nil {
		ew.Close()
		return nil, err
	}
	if err := ew.Close(); err != nil {
		return nil, err
	}

	candidate := func(r gio.EdgeAux2) bool { return r.A == 1 }
	for pass := 0; ; pass++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		trace.Proc10Passes++
		// One partitioned local peel collapses within-part cascades (the
		// paper's Procedure 10 pass); the exact-support certification then
		// removes every cross-part straggler and decides termination.
		if err := embu.LocalPeel(ctx, elig, n, nil, candidate, k-3, cfg.embu(), cfg.Seed+int64(pass), nil); err != nil {
			return nil, err
		}
		sups, err := embu.ExactSupports(ctx, elig, n, cfg.embu())
		if err != nil {
			return nil, err
		}
		// Sort supports by key to join against the sorted eligible spool.
		supSorter := extsort.NewSorter[gio.EdgeAux](gio.EdgeAuxCodec{}, func(a, b gio.EdgeAux) bool {
			if a.U != b.U {
				return a.U < b.U
			}
			return a.V < b.V
		}, extsort.Config{Budget: int(cfg.Budget), Dir: cfg.TempDir, Stats: cfg.Stats})
		defer supSorter.Discard()
		if err := sups.ForEach(func(r gio.EdgeAux) error { return supSorter.Push(r) }); err != nil {
			sups.Remove()
			return nil, err
		}
		sups.Remove()
		supIt, err := supSorter.Sort()
		if err != nil {
			return nil, err
		}

		// Stream-join: eligible records and support records are both
		// sorted by (U,V) and contain the same edge set.
		next, err := gio.NewSpool[gio.EdgeAux2](cfg.TempDir, "tdelig", gio.EdgeAux2Codec{}, cfg.Stats)
		if err != nil {
			supIt.Close()
			return nil, err
		}
		nw, err := next.Create()
		if err != nil {
			next.Remove()
			supIt.Close()
			return nil, err
		}
		er, err := elig.Open()
		if err != nil {
			nw.Close()
			next.Remove()
			supIt.Close()
			return nil, err
		}
		violations := int64(0)
		joinErr := func() error {
			for {
				srec, ok, err := supIt.Next()
				if err != nil {
					return err
				}
				if !ok {
					// The eligible reader must be exhausted too.
					if _, rerr := er.Read(); !errors.Is(rerr, io.EOF) {
						return errors.New("emtd: eligible/support streams diverged")
					}
					return nil
				}
				erec, rerr := er.Read()
				if rerr != nil {
					return rerr
				}
				if erec.U != srec.U || erec.V != srec.V {
					return errors.New("emtd: eligible/support streams misaligned")
				}
				if erec.A == 1 && srec.Aux < k-2 {
					violations++
					continue // drop this candidate from the eligible set
				}
				if err := nw.Write(erec); err != nil {
					return err
				}
			}
		}()
		er.Close()
		supIt.Close()
		if joinErr != nil {
			nw.Close()
			next.Remove()
			return nil, joinErr
		}
		if err := nw.Close(); err != nil {
			next.Remove()
			return nil, err
		}
		if err := elig.ReplaceWith(next); err != nil {
			return nil, err
		}
		if violations == 0 {
			break
		}
	}

	// Surviving candidates are Phi_k.
	var out []graph.Edge
	err = elig.ForEach(func(r gio.EdgeAux2) error {
		if r.A == 1 {
			out = append(out, graph.Edge{U: r.U, V: r.V})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// classifyEdges sets Phi=k on the given edges in the residual, in
// budget-bounded chunks (one scan-and-rewrite per chunk).
func classifyEdges(gnew *gio.Spool[gio.EdgeRec5], edges []graph.Edge, k int32, cfg Config) error {
	chunkCap := int(cfg.Budget)
	for lo := 0; lo < len(edges); lo += chunkCap {
		hi := lo + chunkCap
		if hi > len(edges) {
			hi = len(edges)
		}
		chunk := make(map[uint64]bool, hi-lo)
		for _, e := range edges[lo:hi] {
			chunk[e.Key()] = true
		}
		next, err := gio.NewSpool[gio.EdgeRec5](cfg.TempDir, "tdgnew", gio.EdgeRec5Codec{}, cfg.Stats)
		if err != nil {
			return err
		}
		nw, err := next.Create()
		if err != nil {
			return err
		}
		err = gnew.ForEach(func(r gio.EdgeRec5) error {
			if chunk[r.Key()] {
				r.Phi = k
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
		if err := gnew.ReplaceWith(next); err != nil {
			return err
		}
	}
	return nil
}

// pruneClassified deletes classified edges that can no longer support any
// unclassified edge. The paper's condition (Procedure 8, Steps 7-9) is
// per-triangle; this implementation uses the cheaper sufficient condition
// that neither endpoint touches an unclassified edge — every triangle of
// such an edge consists of classified partners, so it is removable. The
// difference only affects how much the residual shrinks, never
// correctness.
func pruneClassified(gnew *gio.Spool[gio.EdgeRec5], n int, cfg Config, trace *Trace) error {
	hasUnclassified := graph.NewVertexSet(n)
	if err := gnew.ForEach(func(r gio.EdgeRec5) error {
		if !r.Classified() {
			hasUnclassified.Add(r.U)
			hasUnclassified.Add(r.V)
		}
		return nil
	}); err != nil {
		return err
	}
	next, err := gio.NewSpool[gio.EdgeRec5](cfg.TempDir, "tdgnew", gio.EdgeRec5Codec{}, cfg.Stats)
	if err != nil {
		return err
	}
	nw, err := next.Create()
	if err != nil {
		return err
	}
	pruned := int64(0)
	err = gnew.ForEach(func(r gio.EdgeRec5) error {
		if r.Classified() && !hasUnclassified.Contains(r.U) && !hasUnclassified.Contains(r.V) {
			pruned++
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
	if err := gnew.ReplaceWith(next); err != nil {
		return err
	}
	trace.Pruned += pruned
	return nil
}

// kinitShortcut implements the Section 6.3 optimization: rather than
// stepping k down one by one from k_1st = max psi (which may far exceed
// kmax), find the smallest kinit whose candidate subgraph fits in memory,
// decompose that candidate in one in-memory pass, and classify every edge
// whose local truss number is >= kinit (local equals global there: every
// edge of T_kinit has psi >= kinit, so T_kinit is contained in the
// candidate, making local truss numbers >= kinit exact).
//
// Returns done=true when the classes required by cfg.TopT are fully
// covered. On partial coverage, *k is set to kinit-1 for the main loop.
func kinitShortcut(ctx context.Context, gnew *gio.Spool[gio.EdgeRec5], n int, cfg Config, res *Result, emit func(u, v uint32, k int32) error, kmaxSeen *int32, k *int32) (bool, error) {
	// Per-vertex aggregates: degree and max psi over unclassified edges.
	deg := make([]int32, n)
	maxPsi := make([]int32, n)
	k1st := int32(0)
	if err := gnew.ForEach(func(r gio.EdgeRec5) error {
		deg[r.U]++
		deg[r.V]++
		maxPsi[r.U] = maxI32(maxPsi[r.U], r.Psi)
		maxPsi[r.V] = maxI32(maxPsi[r.V], r.Psi)
		k1st = maxI32(k1st, r.Psi)
		return nil
	}); err != nil {
		return false, err
	}
	if k1st < 3 {
		return false, nil
	}
	// est(k) = sum of deg(v) over vertices with maxPsi(v) >= k, an upper
	// bound on the adjacency entries of NS(U_k). Computed for all k via
	// suffix sums of psi buckets.
	bucket := make([]int64, k1st+2)
	for v := 0; v < n; v++ {
		if maxPsi[v] >= 3 {
			bucket[maxPsi[v]] += int64(deg[v])
		}
	}
	est := make([]int64, k1st+2)
	for kk := k1st; kk >= 3; kk-- {
		est[kk] = est[kk+1] + bucket[kk]
	}
	// est bounds the candidate's edge count; the in-memory cap is
	// Budget/2 edges (2 adjacency entries per edge), matching the main
	// loop's extraction capacity.
	kinit := int32(0)
	for kk := int32(3); kk <= k1st; kk++ {
		if est[kk] <= cfg.Budget/2 {
			kinit = kk
			break
		}
	}
	if kinit == 0 {
		return false, nil // nothing fits; fall back to the per-k loop
	}
	res.Trace.KInitUsed = true
	res.Trace.KInit = kinit
	*k = kinit - 1
	if cfg.OnRound != nil {
		cfg.OnRound(kinit)
	}

	// Extract and decompose the candidate in memory.
	var recs []gio.EdgeRec5
	if err := gnew.ForEach(func(r gio.EdgeRec5) error {
		if maxPsi[r.U] >= kinit || maxPsi[r.V] >= kinit {
			recs = append(recs, r)
		}
		return nil
	}); err != nil {
		return false, err
	}
	if len(recs) == 0 {
		return false, nil
	}
	edges := make([]graph.Edge, len(recs))
	for i, r := range recs {
		edges[i] = graph.Edge{U: r.U, V: r.V}
	}
	sg := graph.FromEdges(edges)
	local, err := core.DecomposeCtx(ctx, sg, core.Hooks{})
	if err != nil {
		return false, err
	}

	if local.KMax < kinit {
		// No class at or above kinit exists; the loop continues below.
		return false, nil
	}
	*kmaxSeen = local.KMax
	res.KMax = local.KMax

	// Classify and emit all classes >= kinit, restricted to the requested
	// top-t range.
	low := kinit
	if cfg.TopT > 0 {
		if r := local.KMax - int32(cfg.TopT) + 1; r > low {
			low = r
		}
	}
	byClass := map[int32][]graph.Edge{}
	for id, p := range local.Phi {
		if p >= low {
			byClass[p] = append(byClass[p], sg.Edge(int32(id)))
		}
	}
	for kk := local.KMax; kk >= low; kk-- {
		for _, e := range byClass[kk] {
			if err := emit(e.U, e.V, kk); err != nil {
				return false, err
			}
		}
		if len(byClass[kk]) > 0 {
			if err := classifyEdges(gnew, byClass[kk], kk, cfg); err != nil {
				return false, err
			}
		}
	}
	if err := pruneClassified(gnew, n, cfg, &res.Trace); err != nil {
		return false, err
	}

	// Done if the top-t range is fully covered by the shortcut.
	if cfg.TopT > 0 && local.KMax-int32(cfg.TopT)+1 >= kinit {
		return true, nil
	}
	return false, nil
}
