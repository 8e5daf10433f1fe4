package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/indexfile"
)

// Replication: read-replica scale-out for the read-dominant truss query
// workload. A primary started with -data-dir exposes three things —
//
//	GET /v1/replication/manifest                  every graph + its snapshot metadata
//	GET /v1/replication/graphs/{name}/indexfile   raw index.tix bytes (hydration)
//	GET /v1/graphs/{name}/wal?from=V              long-poll NDJSON tail of committed mutations
//
// — and a follower reconstructs the full read surface from them: hydrate
// by downloading and mmap-opening the indexfile (a file copy, not a WAL
// replay — the payoff of the snapshot-v2 format), then tail the WAL and
// apply each record through the same commit routine a local mutation
// takes. The per-graph monotonic Version is the whole protocol:
// records are streamed strictly in version order with no holes, a
// follower applies record v only on top of v-1, and any discontinuity —
// a rebuild (epoch bump), a compaction that truncated past the
// follower's position, a primary restored from older state — surfaces as
// an explicit resync line telling the follower to re-hydrate.
//
// The WAL tail streams only committed (installed) records: a record is
// visible to followers exactly when its version is visible to queries,
// so a follower can never get ahead of what the primary acknowledges.

// replHeartbeat is how often an idle WAL tail emits a heartbeat line.
// Heartbeats carry the current version, so a caught-up follower keeps an
// accurate lag reading without any mutation traffic, and dead
// connections are discovered within one period.
const replHeartbeat = 10 * time.Second

// WALLine is one NDJSON line of the replication tail. Exactly one of the
// three shapes is populated per line:
//
//	{"version":V,"adds":[[u,v],...],"dels":[[u,v],...]}   a committed mutation record
//	{"hb":true,"version":V}                               idle heartbeat (V = current version)
//	{"resync":true}                                       lineage break: re-hydrate and re-tail
//
// An {"error":"..."} line reports a terminal stream failure (e.g. the
// graph was removed). The follower package decodes this struct; sharing
// it keeps the wire shape from drifting.
type WALLine struct {
	Version uint64      `json:"version,omitempty"`
	Adds    [][2]uint32 `json:"adds,omitempty"`
	Dels    [][2]uint32 `json:"dels,omitempty"`
	HB      bool        `json:"hb,omitempty"`
	Resync  bool        `json:"resync,omitempty"`
	Error   string      `json:"error,omitempty"`
}

// ReplGraph is one graph in the replication manifest: the registry
// summary plus what a follower needs to plan hydration.
type ReplGraph struct {
	GraphInfo
	// SnapshotVersion is the version of the on-disk indexfile (what a
	// fresh hydration lands at; the WAL covers the distance to Version).
	SnapshotVersion uint64 `json:"snapshot_version"`
	// SnapshotBytes is the indexfile size — the hydration transfer cost.
	SnapshotBytes int64 `json:"snapshot_bytes"`
}

// replState fans out "this graph advanced" wakeups to blocked WAL tails.
// One channel per graph, closed and replaced on publish: watchers grab
// the channel before reading registry state, so a publish between the
// read and the wait still wakes them (no lost-wakeup window).
type replState struct {
	mu      sync.Mutex
	waiters map[string]chan struct{}
}

// watch returns a channel closed at name's next publish.
func (r *replState) watch(name string) <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.waiters == nil {
		r.waiters = map[string]chan struct{}{}
	}
	ch, ok := r.waiters[name]
	if !ok {
		ch = make(chan struct{})
		r.waiters[name] = ch
	}
	return ch
}

// publish wakes every watcher of name. Called with s.mu held (from
// storeLocked); lock order is s.mu before repl.mu, and watchers take
// only repl.mu, so this never deadlocks.
func (r *replState) publish(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ch, ok := r.waiters[name]; ok {
		close(ch)
		delete(r.waiters, name)
	}
}

// requireStore gates the replication endpoints on durability: without a
// data dir there is no indexfile to hydrate from and no WAL to tail.
func (s *Server) requireStore(w http.ResponseWriter) bool {
	if s.store == nil {
		WriteError(w, http.StatusNotImplemented,
			"replication requires a primary started with -data-dir")
		return false
	}
	return true
}

// handleReplManifest serves GET /v1/replication/manifest: every
// registered graph with its registry summary and snapshot metadata,
// sorted by name. Followers poll it to discover graphs to hydrate,
// graphs that disappeared, and each graph's current target version.
func (s *Server) handleReplManifest(w http.ResponseWriter, r *http.Request) {
	if !s.requireStore(w) {
		return
	}
	entries := s.Entries()
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	graphs := make([]ReplGraph, 0, len(entries))
	for _, e := range entries {
		rg := ReplGraph{GraphInfo: entryInfo(e)}
		if v, n, err := s.store.SnapshotInfo(e.Name); err == nil {
			rg.SnapshotVersion, rg.SnapshotBytes = v, n
		}
		graphs = append(graphs, rg)
	}
	WriteJSON(w, http.StatusOK, map[string]any{"graphs": graphs})
}

// handleReplIndexfile serves GET /v1/replication/graphs/{name}/indexfile:
// the raw index.tix bytes for hydration. The open file descriptor pins
// the inode, so a concurrent compaction's atomic rename cannot tear the
// transfer — the follower receives a complete snapshot at *some* version
// (it reads which one from the downloaded file's own metadata) and the
// WAL tail's contiguity check reconciles any distance from there.
func (s *Server) handleReplIndexfile(w http.ResponseWriter, r *http.Request) {
	if !s.requireStore(w) {
		return
	}
	name := r.PathValue("name")
	e, ok := s.Lookup(name)
	if !ok {
		WriteError(w, http.StatusNotFound, "no graph %q", name)
		return
	}
	f, err := os.Open(s.store.IndexPath(name))
	if errors.Is(err, os.ErrNotExist) {
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusServiceUnavailable, "graph %q has no snapshot yet", name)
		return
	}
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "opening snapshot: %v", err)
		return
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "statting snapshot: %v", err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.FormatInt(st.Size(), 10))
	h.Set("X-Truss-Epoch", strconv.Itoa(e.Epoch))
	w.WriteHeader(http.StatusOK)
	n, _ := io.Copy(w, f)
	s.metrics.replHydrations.Inc()
	s.metrics.replHydrationBytes.Add(n)
}

// handleWALTail serves GET /v1/graphs/{name}/wal?from=V: an NDJSON
// long-poll stream of the graph's committed mutation records with
// versions strictly greater than V, in order, with no holes. The handler
// re-reads the (compaction-bounded) WAL on each wakeup and streams only
// records the registry has installed, so visibility here matches query
// visibility exactly. Any condition under which contiguity from V cannot
// be proven — the epoch changed (rebuild), the WAL no longer reaches
// back to V+1 (compaction passed the follower), V is ahead of the graph
// (primary restored from older state) — ends the stream with a resync
// line instead of guessing.
func (s *Server) handleWALTail(w http.ResponseWriter, r *http.Request) {
	if !s.requireStore(w) {
		return
	}
	name := r.PathValue("name")
	e, ok := s.Lookup(name)
	if !ok {
		WriteError(w, http.StatusNotFound, "no graph %q", name)
		return
	}
	last := uint64(0)
	if raw := r.URL.Query().Get("from"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			WriteError(w, http.StatusBadRequest, "from must be a uint64 version")
			return
		}
		last = v
	}
	epoch0 := e.Epoch
	h := w.Header()
	h.Set("Content-Type", "application/x-ndjson")
	h.Set(versionHeader, strconv.FormatUint(e.Version, 10))
	w.WriteHeader(http.StatusOK)
	// The middleware's status recorder exposes flushing only through the
	// ResponseController's Unwrap chain, not a direct Flusher assertion.
	rc := http.NewResponseController(w)
	rc.Flush() // commit the headers: a caught-up tail may not write for a while
	enc := json.NewEncoder(w)
	send := func(l WALLine) bool {
		if enc.Encode(l) != nil {
			return false
		}
		return rc.Flush() == nil
	}
	resync := func() {
		s.metrics.replResyncs.Inc()
		send(WALLine{Resync: true})
	}
	s.metrics.replTails.Inc()
	defer s.metrics.replTails.Dec()
	ctx := r.Context()
	hb := time.NewTicker(replHeartbeat)
	defer hb.Stop()
	for {
		// Grab the wakeup channel before reading state: a publish landing
		// between the Lookup below and the select still closes this channel.
		wake := s.repl.watch(name)
		e, ok := s.Lookup(name)
		switch {
		case !ok:
			send(WALLine{Error: fmt.Sprintf("graph %q removed", name)})
			return
		case e.Epoch != epoch0:
			resync()
			return
		case last > e.Version:
			resync()
			return
		case e.Version > last:
			recs, err := s.store.WALRecordsAfter(name, last)
			if err != nil {
				send(WALLine{Error: fmt.Sprintf("reading WAL: %v", err)})
				return
			}
			streamed := false
			for _, rec := range recs {
				if rec.Version > e.Version {
					break // appended but not yet installed: not visible yet
				}
				if rec.Version != last+1 {
					resync() // hole: compaction moved past the follower
					return
				}
				if !send(WALLine{Version: rec.Version, Adds: toPairs(rec.Adds), Dels: toPairs(rec.Dels)}) {
					return
				}
				last = rec.Version
				streamed = true
				s.metrics.replRecords.Inc()
			}
			if streamed {
				continue // more may have landed while we streamed
			}
			// The entry is ahead of us but the WAL has nothing contiguous
			// to offer (compacted away, or install-before-append interleave
			// we cannot prove out). Only a fresh snapshot can bridge it.
			resync()
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-wake:
		case <-hb.C:
			if !send(WALLine{HB: true, Version: e.Version}) {
				return
			}
		}
	}
}

// toPairs converts canonical edges to the wire's [u,v] pair shape.
func toPairs(edges []graph.Edge) [][2]uint32 {
	if len(edges) == 0 {
		return nil
	}
	out := make([][2]uint32, len(edges))
	for i, e := range edges {
		out[i] = [2]uint32{e.U, e.V}
	}
	return out
}

// ErrReplicaGap is returned by ApplyReplicated when the record does not
// directly follow the graph's applied version — the follower's signal to
// throw the entry away and re-hydrate from the primary's snapshot.
var ErrReplicaGap = errors.New("replicated record does not follow the applied version")

// ApplyReplicated applies one replicated mutation record to name at
// exactly the stated version: records at or below the current version
// are skipped (idempotent redelivery after a reconnect resumes cleanly),
// a record more than one ahead is rejected with ErrReplicaGap, and the
// in-sequence record commits through the same routine a local flush
// does — WAL append before install included, so the follower's own
// durability matches the primary's discipline, which is what makes a
// follower restart resume instead of re-hydrate. Maintenance runs on
// ctx, so the follower's own shutdown interrupts it.
func (s *Server) ApplyReplicated(ctx context.Context, name string, version uint64, adds, dels []graph.Edge) error {
	lock := s.lockName(name)
	defer s.unlockName(name, lock)
	e, ok := s.Lookup(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoGraph, name)
	}
	if e.Index == nil {
		return fmt.Errorf("graph %q (%s): %w", name, e.State, ErrNotReady)
	}
	if version <= e.Version {
		return nil // already applied
	}
	if version != e.Version+1 {
		return fmt.Errorf("%w: record %d over applied %d", ErrReplicaGap, version, e.Version)
	}
	_, _, err := s.commit(ctx, e, version, adds, dels, false)
	return err
}

// HydrateSnapshot replaces name's local state with a snapshot streamed
// from a primary: the bytes are written atomically as the graph's
// index.tix (any previous WAL belongs to the abandoned lineage and is
// dropped), the file is mmap-opened and fully checksum-verified — the
// bytes crossed a network — and the entry is installed at the snapshot's
// own version and the primary's epoch. Requires a data dir. The
// previous entry's mapping, if any, stays open for the life of the
// process (queries may still hold it), same as after a rebuild.
func (s *Server) HydrateSnapshot(name string, epoch int, r io.Reader) (*Entry, int64, error) {
	if s.store == nil {
		return nil, 0, errors.New("server: hydration requires a data dir")
	}
	lock := s.lockName(name)
	defer s.unlockName(name, lock)
	n, err := s.store.ReceiveIndexSnapshot(name, r)
	if err != nil {
		return nil, n, err
	}
	path := s.store.IndexPath(name)
	f, err := indexfile.Open(path)
	if err != nil {
		os.Remove(path)
		return nil, n, fmt.Errorf("server: hydrated snapshot unreadable: %w", err)
	}
	if err := f.Verify(); err != nil {
		f.Close()
		os.Remove(path)
		return nil, n, fmt.Errorf("server: hydrated snapshot corrupt: %w", err)
	}
	ix := f.Index()
	e := &Entry{
		Name:     name,
		State:    StateReady,
		Index:    ix,
		Source:   f.Meta().Source,
		LoadedAt: time.Now(),
		Epoch:    epoch,
		Version:  f.Meta().GraphVersion,
	}
	if !s.install(name, e, s.beginBuild()) {
		f.Close()
		return nil, n, fmt.Errorf("graph %q: hydration superseded by a concurrent install", name)
	}
	s.metrics.ixMapped.Add(f.MappedBytes())
	s.logf("graph %q hydrated at version %d (epoch %d): m=%d kmax=%d, %d bytes",
		name, e.Version, e.Epoch, ix.NumEdges(), ix.KMax(), n)
	return e, n, nil
}

// SetReadyProbe installs an extra readiness gate consulted by Ready()
// after the registry's own checks pass. The follower wires its
// caught-up-within-lag check here, so a replica's /readyz only admits
// traffic once its answers are close enough to the primary's.
func (s *Server) SetReadyProbe(probe func() (bool, []string)) {
	s.mu.Lock()
	s.readyProbe = probe
	s.mu.Unlock()
}

// rejectReadOnly answers mutations on a follower: 403 with a structured
// body carrying the primary's address, so a misconfigured writer learns
// where to go in one round-trip instead of a retry loop.
func (s *Server) rejectReadOnly(w http.ResponseWriter) bool {
	if s.opts.Follow == "" {
		return false
	}
	WriteJSON(w, http.StatusForbidden, map[string]string{
		"error":   "read-only replica: mutations must go to the primary",
		"primary": s.opts.Follow,
	})
	return true
}
