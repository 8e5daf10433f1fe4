package server

import (
	"context"
	"fmt"
	"time"

	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/ingest"
)

// flushOutcome is the server's payload on each ingest.Applied: the entry
// the flush published (or left in place) and the maintenance result the
// HTTP layer reports back.
type flushOutcome struct {
	entry *Entry
	res   *dynamic.Result
}

// pipeline returns name's ingestion pipeline, creating it on first use.
// Creation is refused while shutting down (the pipes map has already
// been drained and abandoned).
func (s *Server) pipeline(name string) (*ingest.Pipeline, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return nil, fmt.Errorf("graph %q: server shutting down", name)
	}
	p, ok := s.pipes[name]
	if !ok {
		p = ingest.New(ingest.Config{
			Name: name,
			Apply: func(_ context.Context, muts []ingest.Mutation) (ingest.Applied, error) {
				return s.applyFlush(name, muts)
			},
			MaxBatch:      s.opts.IngestMaxBatch,
			MaxQueue:      s.opts.IngestMaxQueue,
			FlushInterval: s.opts.IngestFlushInterval,
			Metrics:       s.metrics.ingest,
		})
		s.pipes[name] = p
	}
	return p, nil
}

// applyFlush group-commits one coalesced flush: it runs on the graph's
// flusher goroutine, under the name lock, and commits the whole flush as
// one batch — one dynamic.Update, one index Patch, one WAL append +
// fsync, one install. Producers are woken with the published version,
// so durability still precedes visibility and versions stay monotonic
// per graph.
func (s *Server) applyFlush(name string, muts []ingest.Mutation) (ingest.Applied, error) {
	lock := s.lockName(name)
	defer s.unlockName(name, lock)

	e, ok := s.Lookup(name)
	if !ok {
		return ingest.Applied{}, fmt.Errorf("%w: %q", ErrNoGraph, name)
	}
	if e.State != StateReady || e.Index == nil {
		return ingest.Applied{}, fmt.Errorf("graph %q (%s): %w", name, e.State, ErrNotReady)
	}
	g := e.Index.Graph()
	// Coalesce against the live graph: duplicates dedup, the last op per
	// edge wins, and ops that are no-ops against the current edge set —
	// including add+delete pairs that cancel — never reach the WAL.
	adds, dels := ingest.Coalesce(muts, g.HasEdge)
	if len(adds) == 0 && len(dels) == 0 {
		// The whole flush coalesced away: ack at the current version
		// without bumping it — there is nothing to make durable and
		// nothing new to see.
		return ingest.Applied{
			Version: e.Version,
			Payload: &flushOutcome{entry: e, res: &dynamic.Result{G: g}},
		}, nil
	}
	start := time.Now()
	ne, res, err := s.commit(s.baseCtx, e, e.Version+1, adds, dels, false)
	if err != nil {
		return ingest.Applied{}, err
	}
	s.logf("graph %q mutated to version %d: flush of %d coalesced to +%d -%d edges, m=%d kmax=%d, %s (region=%d fallback=%v parallel=%d)",
		name, ne.Version, len(muts), len(adds), len(dels), res.G.NumEdges(), res.KMax,
		time.Since(start).Round(time.Microsecond), res.Stats.Region, res.Stats.FellBack, res.Stats.ParallelPeels)
	return ingest.Applied{
		Version: ne.Version,
		Adds:    len(adds),
		Dels:    len(dels),
		Payload: &flushOutcome{entry: ne, res: res},
	}, nil
}

// commit is the one routine that applies a mutation batch to a graph:
// dynamic.Update, copy-on-write Patch, WAL append, maintenance counters,
// and a seq-guarded install of the successor of e at version. Local
// flushes, replicated records and WAL replay all commit through it, so
// a primary, a follower and a restart count the same maintenance for
// the same batch. replay marks records that are already durable: they
// are not appended again, trigger no compaction, and are not installed
// one by one — Recover publishes only the last successor, so no
// superseded index stays reachable from the registry while the next
// batch allocates. Callers hold the name lock, or run before serving.
func (s *Server) commit(ctx context.Context, e *Entry, version uint64, adds, dels []graph.Edge, replay bool) (*Entry, *dynamic.Result, error) {
	start := time.Now()
	res, err := dynamic.Update(ctx, e.Index.Graph(), e.Index.PhiView(),
		dynamic.Batch{Adds: adds, Dels: dels},
		dynamic.Config{Workers: s.opts.Workers})
	if err != nil {
		return nil, nil, err
	}
	// Patch before the WAL append: the patched index is pure compute (a
	// copy-on-write overlay, safe even when e.Index serves off an mmap'd
	// snapshot), and having it in hand lets a triggered compaction
	// persist the exact index being published.
	patched := e.Index.Patch(res.G, res.Phi, res.KMax, res.Remap, res.Changed)
	compact := false
	if !replay && s.store != nil {
		// Durability before visibility: if the WAL append fails the whole
		// batch is rejected, so disk never lags memory. One record, one
		// fsync, for every mutation in the batch — the group commit.
		walBytes, err := s.store.AppendMutation(e.Name, version, adds, dels)
		if err != nil {
			return nil, nil, fmt.Errorf("graph %q: batch rejected, WAL append failed: %w", e.Name, err)
		}
		s.metrics.walAppends.Inc()
		s.metrics.walSize(e.Name).Set(walBytes)
		compact = walBytes >= s.opts.walCompactBytes()
	}
	s.metrics.maints.Inc()
	s.metrics.maintDur.ObserveSince(start)
	s.metrics.maintChanged.Add(int64(res.Stats.Changed))
	s.metrics.maintRegion.Add(int64(res.Stats.Region))
	if res.Stats.FellBack {
		s.metrics.maintFallback.Inc()
	}
	s.metrics.maintParallel.Add(int64(res.Stats.ParallelPeels))
	ne := &Entry{
		Name:      e.Name,
		State:     StateReady,
		Index:     patched,
		Source:    e.Source,
		LoadedAt:  time.Now(),
		BuildTime: e.BuildTime,
		Epoch:     e.Epoch,
		Version:   version,
	}
	if replay {
		return ne, res, nil
	}
	// Install under the sequence of the entry the batch was computed
	// from: if a rebuild claimed a newer sequence meanwhile, this install
	// is rejected instead of overwriting the rebuilt decomposition (the
	// rebuild's own snapshot will truncate the orphan WAL record).
	if !s.install(e.Name, ne, e.seq) {
		return nil, nil, fmt.Errorf("graph %q: batch superseded by a concurrent install", e.Name)
	}
	// Compaction is scheduled after the install so the registry already
	// carries the snapshot's version; it runs off this goroutine — the
	// commit critical path pays nothing.
	if compact {
		s.scheduleCompaction(e.Name, e.Source, version, e.Epoch, patched)
	}
	return ne, res, nil
}

// scheduleCompaction starts an asynchronous WAL compaction for name at
// version, unless one is already in flight or the server is shutting
// down. The old path wrote the snapshot synchronously inside the
// mutation critical section, holding the name lock across an indexfile
// write + fsync; moving it here keeps flushes committing at WAL-append
// speed while the snapshot streams out in the background.
func (s *Server) scheduleCompaction(name, source string, version uint64, epoch int, ix *index.TrussIndex) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down || s.compacting[name] {
		return
	}
	s.compacting[name] = true
	s.builds.Add(1) // Shutdown waits for compactions like it waits for builds
	go func() {
		defer s.builds.Done()
		remaining := s.compact(name, source, version, epoch, ix)
		s.mu.Lock()
		delete(s.compacting, name)
		s.mu.Unlock()
		// Flushes that committed while this compaction ran had their
		// triggers coalesced into the in-flight flag. If the surviving
		// WAL tail is still over the threshold, chase it with another
		// round against the now-current entry, so the trigger is never
		// lost — each round folds everything up to its scheduled version,
		// so this converges as soon as flushes pause.
		if remaining >= s.opts.walCompactBytes() {
			if e, ok := s.Lookup(name); ok && e.State == StateReady &&
				e.Epoch == epoch && e.Version > version && e.Index != nil {
				s.scheduleCompaction(name, e.Source, e.Version, e.Epoch, e.Index)
			}
		}
	}()
}

// compact folds the WAL into a snapshot in two phases, neither of which
// stalls the flush path for long:
//
//  1. Snapshot write, under the per-graph snapshot lock only — flushes
//     keep appending to the WAL while the indexfile streams out. Safe
//     because recovery ignores WAL records at or below the snapshot's
//     version, so a crash at any point replays correctly.
//  2. WAL truncation, under the name lock for just a rewrite of the few
//     records that postdate the snapshot — the only moment the flush
//     path can block on compaction, and it is O(records since the
//     snapshot), not O(index).
//
// Both phases re-validate the graph's lineage (same epoch, version not
// behind the snapshot) and abort when a rebuild or removal won: a stale
// snapshot must never land over a newer lineage's files, and a truncation
// must never run against a WAL it does not describe.
//
// The return value is the surviving WAL size in bytes (records newer
// than the snapshot), or -1 when the compaction aborted — the caller
// uses it to decide whether a chase round is needed.
func (s *Server) compact(name, source string, version uint64, epoch int, ix *index.TrussIndex) int64 {
	snapL := s.snaps.lock(name)
	e, ok := s.Lookup(name)
	if !ok || e.Epoch != epoch || e.Version < version {
		snapL.Unlock()
		s.logf("graph %q: compaction at version %d abandoned: lineage changed", name, version)
		return -1
	}
	start := time.Now()
	if err := s.store.WriteIndexSnapshot(name, source, version, ix); err != nil {
		s.metrics.snapFails.Inc()
		snapL.Unlock()
		s.logf("graph %q: WAL compaction failed: %v", name, err)
		return -1
	}
	s.metrics.snapSaves.Inc()
	s.metrics.snapDur.ObserveSince(start)
	snapL.Unlock()

	lock := s.lockName(name)
	defer s.unlockName(name, lock)
	e, ok = s.Lookup(name)
	if !ok || e.Epoch != epoch {
		s.logf("graph %q: WAL truncation at version %d abandoned: lineage changed", name, version)
		return -1
	}
	remaining, err := s.store.TruncateWAL(name, version)
	if err != nil {
		s.logf("graph %q: WAL truncation failed: %v", name, err)
		return -1
	}
	s.metrics.walSize(name).Set(remaining)
	s.metrics.compactions.Inc()
	s.logf("graph %q: WAL compacted into snapshot at version %d (%d bytes of newer records kept, %s)",
		name, version, remaining, time.Since(start).Round(time.Microsecond))
	return remaining
}
