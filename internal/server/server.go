// Package server serves truss-decomposition queries over HTTP: it keeps a
// registry of named graphs, each decomposed once and frozen into an
// index.TrussIndex, and answers point queries (truss numbers, k-truss
// communities, histograms, top classes) against the resident indexes —
// the "compute once, query forever" serving model the ROADMAP's north
// star asks for.
//
// Concurrency model. The registry is an immutable snapshot behind an
// atomic pointer: readers load the pointer and never take a lock, so
// query throughput scales with cores and is never blocked by a build.
// Writers (load, rebuild, remove) serialize on a mutex, copy the map,
// and publish a new snapshot. Decompositions run in background
// goroutines with the parallel peeler; while a graph rebuilds, the
// previous index keeps serving.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/gio"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/ingest"
	"repro/internal/obs"
)

// State is the lifecycle phase of a registered graph.
type State string

// Graph lifecycle states.
const (
	// StateBuilding means a decomposition is in flight. If the graph was
	// registered before, its previous index keeps answering queries.
	StateBuilding State = "building"
	// StateReady means the index is resident and serving.
	StateReady State = "ready"
	// StateFailed means the last (re)build errored; Entry.Err has the cause.
	StateFailed State = "failed"
)

// Entry is one named graph in the registry. Entries are immutable: a
// rebuild publishes a fresh Entry rather than mutating the old one.
type Entry struct {
	// Name is the registry key.
	Name string
	// State is the lifecycle phase (building, ready, failed).
	State State
	// Err holds the failure cause when State is StateFailed.
	Err string
	// Index is the resident query index; non-nil when State is
	// StateReady, and also during a rebuild of a previously-ready graph.
	Index *index.TrussIndex
	// Source records where the graph came from (a path, or "inline").
	Source string
	// LoadedAt is when this entry's build finished (zero while building).
	LoadedAt time.Time
	// BuildTime is how long decomposition plus indexing took.
	BuildTime time.Duration
	// Epoch increments on every successful rebuild of the same name.
	Epoch int
	// Version is the graph's monotonic state counter: 1 after the first
	// build, +1 for every mutation batch and every rebuild. Queries
	// answered by this entry see exactly the state of this version, and
	// the durability layer replays a restarted server to it.
	Version uint64

	// seq is the build sequence number that produced this entry; installs
	// are rejected when a newer sequence has already published, so an old
	// slow rebuild can never clobber a newer result.
	seq int
}

// Options configures a Server.
type Options struct {
	// Workers is the worker count handed to the parallel decomposer
	// (0 = GOMAXPROCS).
	Workers int
	// Logf, when non-nil, receives one line per lifecycle event.
	Logf func(format string, args ...any)
	// MaxBodyBytes caps the POST /v1/graphs/{name} request body
	// (0 selects DefaultMaxBodyBytes; negative disables the cap).
	MaxBodyBytes int64
	// MaxInlineVertexID caps vertex IDs in inline edge lists — the CSR
	// representation allocates O(max ID) memory, so an unchecked ID is a
	// remote allocation of up to 34 GB (0 selects
	// DefaultMaxInlineVertexID; negative disables the cap). Server-side
	// files loaded by path are trusted and not subject to this cap. The
	// same cap applies to mutation endpoints.
	MaxInlineVertexID int64
	// DataDir, when non-empty, makes the registry durable: every build
	// writes a snapshot (the mmap-able indexfile format), every mutation
	// appends to a WAL, and Recover restores all graphs at their
	// pre-shutdown versions without re-decomposing anything — graphs with
	// a clean v2 snapshot serve straight off the mapped file.
	DataDir string
	// VerifySnapshots makes recovery check every index snapshot's section
	// checksums (one sequential read per file) before serving it. Off by
	// default: the atomic write discipline already excludes torn files,
	// this additionally guards against at-rest bit rot, trading away the
	// O(1)-in-edge-count open time.
	VerifySnapshots bool
	// IngestFlushInterval is the ingestion pipeline's group-commit
	// window. The default 0 is adaptive: a flush commits as soon as the
	// queue goes empty, so a lone client sees per-request latency while
	// concurrent clients batch naturally (the queue refills during each
	// flush's fsync). A positive interval trades that first-mutation
	// latency for strictly larger batches.
	IngestFlushInterval time.Duration
	// IngestMaxBatch caps raw mutations per group-committed flush
	// (0 selects the ingest package default).
	IngestMaxBatch int
	// IngestMaxQueue bounds each graph's ingestion queue; producers block
	// once it fills (0 selects the ingest package default).
	IngestMaxQueue int
	// WALCompactBytes is the WAL size that triggers folding the WAL into
	// a fresh snapshot (0 selects DefaultWALCompactBytes).
	WALCompactBytes int64
	// MaxInFlight bounds concurrently served HTTP requests: excess load is
	// shed immediately with 429 + Retry-After instead of queued into a
	// latency collapse (0 = unlimited). Probe endpoints (/healthz,
	// /readyz, /metrics, /debug/pprof) are exempt.
	MaxInFlight int
	// AccessLog, when non-nil, receives one structured logfmt line per
	// served request (writes are serialized).
	AccessLog io.Writer
	// Metrics selects the observability registry every server metric is
	// registered on (nil = obs.Default()). GET /metrics exposes it.
	Metrics *obs.Registry
	// DisableMetricsEndpoint hides GET /metrics; metrics are still
	// recorded on the registry for out-of-band exposition.
	DisableMetricsEndpoint bool
	// EnablePprof mounts net/http/pprof under /debug/pprof/ — opt-in
	// because profiles expose internals no public endpoint should.
	EnablePprof bool
	// Follow, when non-empty, marks this server a read-only follower of
	// the primary at that base URL: the mutation endpoints (load, delete,
	// edge mutations, the firehose) answer 403 with a JSON body naming
	// the primary, while the whole read surface keeps serving. The
	// internal/replica package drives the actual hydration and WAL
	// tailing; this option only flips the HTTP surface read-only.
	Follow string
}

// Default request-hardening limits for Options zero values.
const (
	DefaultMaxBodyBytes      = 32 << 20 // 32 MiB of JSON
	DefaultMaxInlineVertexID = 1 << 24  // ~16.7M vertex slots ≈ 134 MB CSR offsets
	// DefaultWALCompactBytes folds the WAL into a snapshot once it holds
	// roughly a few hundred thousand mutated edges.
	DefaultWALCompactBytes = 4 << 20
)

// maxBodyBytes resolves the configured request-body cap.
func (o Options) maxBodyBytes() int64 {
	if o.MaxBodyBytes == 0 {
		return DefaultMaxBodyBytes
	}
	return o.MaxBodyBytes
}

// maxInlineVertexID resolves the configured inline vertex-ID cap.
func (o Options) maxInlineVertexID() int64 {
	if o.MaxInlineVertexID == 0 {
		return DefaultMaxInlineVertexID
	}
	return o.MaxInlineVertexID
}

// walCompactBytes resolves the configured WAL compaction threshold.
func (o Options) walCompactBytes() int64 {
	if o.WALCompactBytes == 0 {
		return DefaultWALCompactBytes
	}
	return o.WALCompactBytes
}

// Server holds the graph registry and implements the HTTP API (see
// Handler). Create one with New.
type Server struct {
	opts Options
	mu   sync.Mutex // serializes registry writers
	snap atomic.Pointer[map[string]*Entry]

	// nextSeq hands out build sequence numbers (guarded by mu). A single
	// global counter keeps every name's sequence monotonic — which is all
	// the stale-install guard compares — without a per-name map that
	// would grow forever on churning registries.
	nextSeq int

	// baseCtx is the lifecycle context every decomposition runs under;
	// Shutdown cancels it, which aborts in-flight builds promptly at their
	// next peeling checkpoint. builds tracks background build goroutines;
	// down (guarded by mu) refuses new ones once Shutdown has begun, so
	// builds.Add never races builds.Wait.
	baseCtx context.Context
	stop    context.CancelFunc
	builds  sync.WaitGroup
	down    bool

	// metrics is the server's instrument panel, registered on
	// Options.Metrics (or the process default registry).
	metrics *serverMetrics

	// store is the durability layer (nil without Options.DataDir);
	// storeErr holds the data-dir open failure, surfaced by Recover.
	store    *Store
	storeErr error
	// names serializes mutations and persistence per graph name; queries
	// stay lock-free on the snapshot. snaps serializes snapshot writers
	// per graph, so an asynchronous compaction's snapshot write cannot
	// interleave with a rebuild's. Lock order is always name before snap;
	// the compactor takes them one at a time, never nested.
	names *lockTable
	snaps *lockTable
	// pipes holds each graph's ingestion pipeline, created on first
	// mutation; compacting marks graphs with an asynchronous WAL
	// compaction in flight. Both guarded by mu.
	pipes      map[string]*ingest.Pipeline
	compacting map[string]bool
	// repl wakes blocked WAL-tail streams whenever a graph's entry is
	// republished (see replication.go).
	repl replState
	// readyProbe, when set (SetReadyProbe), is an extra gate Ready()
	// consults — the follower's caught-up check. Guarded by mu.
	readyProbe func() (ready bool, pending []string)
}

// lockTable is a set of named mutexes that evicts idle entries, so a
// churning registry (many distinct names over a server's lifetime) does
// not grow the maps without bound.
type lockTable struct {
	mu    sync.Mutex
	locks map[string]*sync.Mutex
}

func newLockTable() *lockTable { return &lockTable{locks: map[string]*sync.Mutex{}} }

// get returns name's mutex, creating it on first use.
func (t *lockTable) get(name string) *sync.Mutex {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.locks[name]
	if !ok {
		l = &sync.Mutex{}
		t.locks[name] = l
	}
	return l
}

// lock acquires name's mutex. Eviction can race the acquire, so after
// blocking it re-validates that the held lock is still the table's lock
// for name — two goroutines can never end up holding different locks for
// the same name.
func (t *lockTable) lock(name string) *sync.Mutex {
	for {
		l := t.get(name)
		l.Lock()
		if t.get(name) == l {
			return l
		}
		l.Unlock()
	}
}

// evict drops name's entry if nobody holds or waits on it. TryLock never
// blocks, so calling this under other locks cannot deadlock; a goroutine
// still holding an evicted pointer is harmless because lock re-validates
// after acquiring.
func (t *lockTable) evict(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if l, ok := t.locks[name]; ok && l.TryLock() {
		delete(t.locks, name)
		l.Unlock()
	}
}

// size reports the number of live entries (tests watch it for leaks).
func (t *lockTable) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.locks)
}

// New returns an empty Server.
func New(opts Options) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:       opts,
		names:      newLockTable(),
		snaps:      newLockTable(),
		pipes:      map[string]*ingest.Pipeline{},
		compacting: map[string]bool{},
		baseCtx:    ctx,
		stop:       cancel,
		metrics:    newServerMetrics(opts.Metrics),
	}
	if opts.DataDir != "" {
		s.store, s.storeErr = NewStore(opts.DataDir)
		if s.storeErr != nil {
			s.logf("durability disabled: %v", s.storeErr)
		}
		if s.store != nil {
			s.store.VerifyOnLoad = opts.VerifySnapshots
			s.store.OnOpen = func(elapsed time.Duration, mappedBytes int64) {
				s.metrics.ixOpenDur.Observe(elapsed.Seconds())
			}
		}
	}
	empty := map[string]*Entry{}
	s.snap.Store(&empty)
	return s
}

// lockName acquires the per-name mutation lock.
func (s *Server) lockName(name string) *sync.Mutex {
	return s.names.lock(name)
}

// unlockName releases a lock taken with lockName and, when the name no
// longer exists in the registry, evicts its idle lock entries — the
// counterpart of Remove's eviction for the lock a removal could not
// reclaim because this goroutine was still holding it.
func (s *Server) unlockName(name string, l *sync.Mutex) {
	l.Unlock()
	if _, ok := s.Lookup(name); !ok {
		s.names.evict(name)
		s.snaps.evict(name)
	}
}

// Shutdown drains every ingestion pipeline (queued mutations group-commit
// and ack), then cancels in-flight background work — builds and
// compactions — and waits for it to exit, all bounded by ctx. The
// registry stays readable — resident indexes keep answering queries — but
// no new decomposition will complete after Shutdown returns: later
// BuildAsync calls and mutations are refused. Safe to call more than
// once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.down = true
	pipes := s.pipes
	s.pipes = map[string]*ingest.Pipeline{}
	s.mu.Unlock()
	// Drain before cancelling the lifecycle context: a flush in progress
	// commits (and its producers are acked) rather than erroring out.
	var drainErr error
	for _, p := range pipes {
		if err := p.Close(ctx); err != nil && drainErr == nil {
			drainErr = err
		}
	}
	s.stop()
	done := make(chan struct{})
	go func() {
		s.builds.Wait()
		close(done)
	}()
	select {
	case <-done:
		return drainErr
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Ready implements the readiness probe: the server is ready when no
// registered graph is still waiting on its first decomposition (entries
// with a resident index stay ready through rebuilds — the old index keeps
// serving) and shutdown has not begun. trussd serve registers recovered
// and preloaded graphs before opening its listener, so /readyz flips to
// 200 exactly when every initial build has published. The pending list
// names the graphs still holding readiness back.
func (s *Server) Ready() (ready bool, pending []string) {
	s.mu.Lock()
	down := s.down
	probe := s.readyProbe
	s.mu.Unlock()
	if down {
		return false, []string{"shutting down"}
	}
	for _, e := range s.Entries() {
		if e.Index == nil && e.State == StateBuilding {
			pending = append(pending, e.Name)
		}
	}
	if probe != nil {
		if ok, extra := probe(); !ok {
			pending = append(pending, extra...)
		}
	}
	sort.Strings(pending)
	return len(pending) == 0, pending
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// beginBuild claims the next build sequence number.
func (s *Server) beginBuild() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextSeq++
	return s.nextSeq
}

// beginAsyncBuild additionally claims a WaitGroup slot for a background
// build, refusing (ok == false) once Shutdown has begun. Claiming the slot
// under mu orders every Add before Shutdown's Wait.
func (s *Server) beginAsyncBuild() (seq int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return 0, false
	}
	s.nextSeq++
	s.builds.Add(1)
	return s.nextSeq, true
}

// install publishes e under its name with seq-guarded, epoch-consistent
// semantics: a ready entry bumps the epoch of whatever it replaces, while
// building placeholders and failure markers inherit the current entry's
// index (so the previous decomposition keeps serving) and epoch. The
// install is rejected — returning false — when a newer build sequence has
// already published for this name.
func (s *Server) install(name string, e *Entry, seq int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := (*s.snap.Load())[name]
	if ok && cur.seq > seq {
		return false
	}
	e.seq = seq
	switch e.State {
	case StateReady:
		// Mutations and recovery pre-assign Epoch/Version; plain builds
		// leave them zero and get the successor values here.
		if e.Epoch == 0 {
			e.Epoch = 1
			if ok {
				e.Epoch = cur.Epoch + 1
			}
		}
		if e.Version == 0 {
			e.Version = 1
			if ok {
				e.Version = cur.Version + 1
			}
		}
	default: // building, failed: keep serving what was there
		if ok {
			e.Index = cur.Index
			e.LoadedAt = cur.LoadedAt
			e.BuildTime = cur.BuildTime
			e.Epoch = cur.Epoch
			e.Version = cur.Version
		}
	}
	s.storeLocked(name, e)
	return true
}

// storeLocked swaps in a fresh snapshot with name set to e, or removed
// when e is nil. s.mu must be held.
func (s *Server) storeLocked(name string, e *Entry) {
	old := *s.snap.Load()
	next := make(map[string]*Entry, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	if e != nil {
		next[name] = e
	} else {
		delete(next, name)
	}
	s.snap.Store(&next)
	ready := int64(0)
	for _, v := range next {
		if v.Index != nil {
			ready++
		}
	}
	s.metrics.graphsReady.Set(ready)
	// Wake WAL tails blocked on this graph: every registry publication —
	// a committed flush, a rebuild, a removal — is a state change a
	// follower must observe.
	s.repl.publish(name)
}

// Lookup returns the entry for name from the current snapshot.
func (s *Server) Lookup(name string) (*Entry, bool) {
	e, ok := (*s.snap.Load())[name]
	return e, ok
}

// Entries returns the current snapshot's entries, unordered.
func (s *Server) Entries() []*Entry {
	snap := *s.snap.Load()
	out := make([]*Entry, 0, len(snap))
	for _, e := range snap {
		out = append(out, e)
	}
	return out
}

// Build decomposes g with the parallel peeler, indexes it, and publishes
// it under name, synchronously. It returns the built entry; when a newer
// concurrent rebuild of the same name published first, the returned entry
// is complete but was not installed.
func (s *Server) Build(name string, g *graph.Graph, source string) *Entry {
	return s.build(name, g, source, s.beginBuild())
}

func (s *Server) build(name string, g *graph.Graph, source string, seq int) *Entry {
	start := time.Now()
	// The level hook feeds the build-progress counters; it runs on the
	// decomposing goroutine once per peeling level, far off the per-edge
	// hot path.
	hooks := core.Hooks{OnLevel: func(int32) { s.metrics.buildLvls.Inc() }}
	res, err := core.DecomposeParallelCtx(s.baseCtx, g, s.opts.Workers, hooks)
	if err != nil {
		// The lifecycle context was canceled (Shutdown): record the abort
		// without clobbering a previously resident index.
		s.metrics.buildFails.Inc()
		e := &Entry{Name: name, State: StateFailed, Err: "build aborted: " + err.Error(), Source: source}
		s.install(name, e, seq)
		s.logf("graph %q build aborted: %v", name, err)
		return e
	}
	ix := index.Build(res)
	s.metrics.builds.Inc()
	s.metrics.buildEdges.Add(int64(g.NumEdges()))
	if p := res.PKT; p != nil {
		s.metrics.buildRounds.Add(int64(p.Rounds))
		s.metrics.buildFrontier.Add(int64(p.FrontierEdges))
		s.metrics.kernelMerge.Add(p.MergeDispatch)
		s.metrics.kernelProbe.Add(p.ProbeDispatch)
	}
	s.metrics.buildDur.ObserveSince(start)
	e := &Entry{
		Name:      name,
		State:     StateReady,
		Index:     ix,
		Source:    source,
		LoadedAt:  time.Now(),
		BuildTime: time.Since(start),
	}
	// The mutation lock orders this install (and its snapshot) against
	// concurrent mutation flushes on the same name.
	lock := s.lockName(name)
	installed := s.install(name, e, seq)
	if installed && s.store != nil {
		// A fresh build starts a fresh durable lineage: snapshot the new
		// decomposition and drop any WAL of the graph it replaced.
		if err := s.saveSnapshot(name, source, e.Version, ix); err != nil {
			s.logf("graph %q: snapshot failed (durability degraded): %v", name, err)
		}
	}
	s.unlockName(name, lock)
	if !installed {
		s.logf("graph %q build #%d superseded by a newer build", name, seq)
		return e
	}
	s.logf("graph %q ready: n=%d m=%d kmax=%d build=%s version=%d",
		name, g.NumVertices(), g.NumEdges(), ix.KMax(), e.BuildTime.Round(time.Millisecond), e.Version)
	return e
}

// saveSnapshot is the instrumented SaveIndexSnapshot: counts, failures,
// and write duration, which is the fsync pause an operator wants on a
// graph. The per-graph snapshot lock serializes it against asynchronous
// compaction writes (callers already hold the name lock; lock order is
// name before snap).
func (s *Server) saveSnapshot(name, source string, version uint64, ix *index.TrussIndex) error {
	snapL := s.snaps.lock(name)
	defer snapL.Unlock()
	start := time.Now()
	err := s.store.SaveIndexSnapshot(name, source, version, ix)
	if err != nil {
		s.metrics.snapFails.Inc()
		return err
	}
	s.metrics.snapSaves.Inc()
	s.metrics.snapDur.ObserveSince(start)
	s.metrics.walSize(name).Set(0)
	return nil
}

// ErrNotReady is returned by Mutate while the named graph has no resident
// index (still building its first decomposition, or failed).
var ErrNotReady = errors.New("graph has no resident index yet")

// ErrNoGraph is returned by Mutate for unknown registry names.
var ErrNoGraph = errors.New("no such graph")

// Mutate applies one batch of edge insertions and deletions to a
// resident graph through its ingestion pipeline: the batch joins
// whatever flush is forming, coalesces with concurrent mutations, and is
// group-committed — one WAL append + fsync, one dynamic.Update, one
// index Patch for the whole flush. Mutate blocks until that flush lands
// and returns the entry it published, so the acked version is durable
// and reading at it sees this call's mutations (read-your-writes). The
// version counter advances by one per non-empty flush, not per call:
// concurrent callers whose mutations share a flush are acked with the
// same version.
//
// Rebuilds win over mutations: while a reload of the same name is in
// flight the entry is in StateBuilding and Mutate refuses (the old graph
// is about to be replaced wholesale), and a flush computed against a
// pre-rebuild entry that races the rebuild's publication is rejected by
// the sequence guard rather than clobbering the fresh decomposition.
func (s *Server) Mutate(ctx context.Context, name string, adds, dels []graph.Edge) (*Entry, *dynamic.Result, error) {
	// Pre-flight against the lock-free snapshot so unknown and not-ready
	// names fail fast without spinning up a pipeline. applyFlush re-checks
	// under the name lock; this check is advisory.
	e, ok := s.Lookup(name)
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrNoGraph, name)
	}
	if e.State != StateReady || e.Index == nil {
		return nil, nil, fmt.Errorf("graph %q (%s): %w", name, e.State, ErrNotReady)
	}
	p, err := s.pipeline(name)
	if err != nil {
		return nil, nil, err
	}
	ap, err := p.Submit(ctx, ingest.FromBatch(adds, dels))
	if err != nil {
		if errors.Is(err, ingest.ErrClosed) {
			// The pipeline closed between lookup and submit (remove or
			// shutdown won the race).
			return nil, nil, fmt.Errorf("%w: %q", ErrNoGraph, name)
		}
		return nil, nil, err
	}
	out := ap.Payload.(*flushOutcome)
	return out.entry, out.res, nil
}

// Recover restores every graph persisted under Options.DataDir. Each
// graph starts from its memory-mapped snapshot — open cost is
// O(sections + kmax) validation, no re-peeling — and the WAL records
// past it are replayed through the same commit routine a flush takes,
// without appending them again; the result is installed once. With no
// records to replay (v2-open) the mapped snapshot itself serves, so
// readiness flips after O(graphs) opens regardless of edge counts. A
// replay (v2-replay) ends in a pure heap index (Patch copies), so the
// never-published mapping is released and the result is folded into a
// fresh snapshot. Graphs with unreadable snapshots are skipped (and
// logged); a torn WAL tail is dropped from disk before the graph takes
// writes. Call it once, before serving.
func (s *Server) Recover() error {
	if s.storeErr != nil {
		return s.storeErr
	}
	if s.store == nil {
		return nil
	}
	graphs, broken, err := s.store.LoadAll()
	if err != nil {
		return err
	}
	for name, berr := range broken {
		s.logf("graph %q: not recovered: %v", name, berr)
	}
	for _, pg := range graphs {
		start := time.Now()
		if pg.TornWAL {
			// An append after the torn bytes would be unreadable at the
			// next recovery, silently losing writes acked from here on.
			if _, err := s.store.TruncateWAL(pg.Name, pg.Version); err != nil {
				pg.File.Close()
				s.logf("graph %q: not recovered: dropping torn WAL tail: %v", pg.Name, err)
				continue
			}
		}
		e := &Entry{
			Name:     pg.Name,
			State:    StateReady,
			Index:    pg.Index,
			Source:   pg.Source,
			LoadedAt: time.Now(),
			Epoch:    1,
			Version:  pg.Version,
		}
		replayed := 0
		for _, rec := range pg.Mutations {
			// Skip records already folded into the snapshot: a crash
			// between a compaction's snapshot rename and its WAL unlink
			// leaves the whole WAL behind at versions the snapshot includes.
			if rec.Version <= pg.Version {
				continue
			}
			if e, _, err = s.commit(s.baseCtx, e, rec.Version, rec.Adds, rec.Dels, true); err != nil {
				pg.File.Close()
				return fmt.Errorf("graph %q: WAL replay: %w", pg.Name, err)
			}
			replayed++
		}
		if !s.install(pg.Name, e, s.beginBuild()) {
			pg.File.Close()
			continue
		}
		path, mapped := "v2-open", int64(0)
		if replayed == 0 {
			// The mapping stays open for the life of the process: queries
			// may hold the entry at any time, so it is never unmapped —
			// later rebuilds just stop referencing it.
			mapped = pg.File.MappedBytes()
			s.metrics.restartV2Open.Inc()
			s.metrics.ixMapped.Add(mapped)
		} else {
			path = "v2-replay"
			pg.File.Close()
			s.metrics.restartV2Replay.Inc()
			// Fold the replayed WAL in so the next restart maps and goes.
			if err := s.saveSnapshot(pg.Name, pg.Source, e.Version, e.Index); err != nil {
				s.logf("graph %q: post-recovery compaction failed: %v", pg.Name, err)
			} else {
				s.metrics.compactions.Inc()
			}
		}
		s.metrics.recovered.Inc()
		s.metrics.replayed.Add(int64(replayed))
		s.recoveryLog(pg.Name, path, e.Version, replayed, mapped, time.Since(start))
		s.logf("graph %q recovered at version %d via %s: n=%d m=%d kmax=%d (%d WAL batches replayed, %s)",
			pg.Name, e.Version, path, e.Index.Graph().NumVertices(), e.Index.NumEdges(), e.Index.KMax(),
			replayed, time.Since(start).Round(time.Microsecond))
	}
	return nil
}

// recoveryLog surfaces each graph's restart path in the access log — the
// same stream request lines go to — so an operator can grep one place to
// see whether a restart mapped its snapshots or had to replay. Recover
// runs before the HTTP listener opens, so writing directly is ordered
// before any request line.
func (s *Server) recoveryLog(name, path string, version uint64, replayed int, mapped int64, elapsed time.Duration) {
	if s.opts.AccessLog == nil {
		return
	}
	fmt.Fprintf(s.opts.AccessLog,
		"time=%s event=recovery graph=%q restart_path=%s version=%d replayed=%d mapped_bytes=%d dur=%s\n",
		time.Now().UTC().Format(time.RFC3339Nano), name, path, version, replayed, mapped,
		elapsed.Round(time.Microsecond))
}

// BuildAsync publishes a building placeholder for name (retaining the
// previous index, if any, so queries keep working during a rebuild) and
// runs the build in a background goroutine.
func (s *Server) BuildAsync(name string, g *graph.Graph, source string) {
	seq, ok := s.beginAsyncBuild()
	if !ok {
		// Shutting down: leave the registry as is (a resident index keeps
		// serving) rather than spawn a build that cannot complete.
		s.logf("graph %q build refused: server shutting down", name)
		return
	}
	s.install(name, &Entry{Name: name, State: StateBuilding, Source: source}, seq)
	go func() {
		defer s.builds.Done()
		defer func() {
			// A panicking build must not take the whole server down;
			// surface it as a failed entry (which install lets keep
			// serving the previous index, if one was resident).
			if p := recover(); p != nil {
				s.metrics.buildFails.Inc()
				s.install(name, &Entry{
					Name: name, State: StateFailed,
					Err: fmt.Sprint(p), Source: source,
				}, seq)
				s.logf("graph %q build panicked: %v", name, p)
			}
		}()
		s.build(name, g, source, seq)
	}()
}

// LoadFileAsync loads a graph file (SNAP text or .bin) and builds its
// index in the background. The file read itself happens on the calling
// goroutine so malformed paths fail fast; only the decomposition is
// deferred.
func (s *Server) LoadFileAsync(name, path string) error {
	g, err := gio.LoadGraph(path, nil)
	if err != nil {
		return err
	}
	s.BuildAsync(name, g, path)
	return nil
}

// Remove drops name from the registry and deletes its persisted state.
// It reports whether the name was present. An in-flight rebuild of the
// same name may re-publish it.
func (s *Server) Remove(name string) bool {
	// Take both per-graph locks for the whole removal: the name lock
	// serializes against in-flight flushes, and the snapshot lock keeps a
	// concurrent compaction phase 1 from recreating the on-disk directory
	// after store.Remove deletes it. Lock order matches compact (name
	// before snap is never nested there, but flushes take name first, so
	// we do too).
	lock := s.lockName(name)
	snapL := s.snaps.lock(name)

	s.mu.Lock()
	_, ok := (*s.snap.Load())[name]
	if ok {
		s.storeLocked(name, nil)
	}
	p := s.pipes[name]
	delete(s.pipes, name)
	s.mu.Unlock()

	if ok && s.store != nil {
		if err := s.store.Remove(name); err != nil {
			s.logf("graph %q: removing persisted state: %v", name, err)
		}
	}
	snapL.Unlock()
	lock.Unlock()
	// The name has left the registry, so evict its lock-table entries —
	// including the case where an in-flight mutation held the name lock
	// while Remove ran (the old TryLock-based eviction leaked exactly
	// that case). Eviction is safe while other goroutines still hold the
	// evicted pointers: lockName re-validates against the table after
	// acquiring, so stale holders drain without splitting the lock.
	s.names.evict(name)
	s.snaps.evict(name)
	// Close the pipeline after releasing the name lock — its flusher may
	// be blocked in applyFlush waiting for that very lock. In-flight
	// flushes now fail their Lookup and producers get ErrNoGraph.
	if p != nil {
		p.Close(context.Background())
	}
	if ok {
		s.logf("graph %q removed", name)
	}
	return ok
}

// WaitReady blocks until name is ready (nil), fails (its error), or the
// timeout expires. It is a polling convenience for startup preloads and
// tests; the HTTP API reports state without blocking.
func (s *Server) WaitReady(name string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		e, ok := s.Lookup(name)
		if ok {
			switch e.State {
			case StateReady:
				return nil
			case StateFailed:
				return fmt.Errorf("graph %q failed: %s", name, e.Err)
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("graph %q not ready after %s", name, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
