package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/indexfile"
	"repro/internal/obs"
)

// mutateJSON issues a mutation request and decodes the response.
func mutateJSON(t *testing.T, ts *httptest.Server, method, path string, body any, out any) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

// trussOf queries one edge's truss number over HTTP.
func trussOf(t *testing.T, ts *httptest.Server, name string, u, v uint32) (int32, bool) {
	t.Helper()
	var resp struct {
		Found bool  `json:"found"`
		Truss int32 `json:"truss"`
	}
	if code := getJSON(t, ts, fmt.Sprintf("/v1/graphs/%s/truss?u=%d&v=%d", name, u, v), &resp); code != http.StatusOK {
		t.Fatalf("truss query: status %d", code)
	}
	return resp.Truss, resp.Found
}

func TestMutateEndpoints(t *testing.T) {
	s, ts := newTestServer(t)
	// A triangle plus a pendant edge.
	s.Build("g", graph.FromEdges([]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 2, V: 3}}), "inline")

	if k, ok := trussOf(t, ts, "g", 0, 1); !ok || k != 3 {
		t.Fatalf("initial truss(0,1) = %d,%v", k, ok)
	}

	// Close the square 0-1-2-3 into K4 → every edge reaches truss 4.
	var mr struct {
		Version  uint64 `json:"version"`
		Changed  int    `json:"changed"`
		Fallback bool   `json:"fallback"`
	}
	code := mutateJSON(t, ts, http.MethodPost, "/v1/graphs/g/edges",
		map[string]any{"edges": [][2]uint32{{0, 3}, {1, 3}}}, &mr)
	if code != http.StatusOK {
		t.Fatalf("POST edges: status %d", code)
	}
	if mr.Version != 2 {
		t.Fatalf("version = %d, want 2", mr.Version)
	}
	if k, _ := trussOf(t, ts, "g", 0, 1); k != 4 {
		t.Fatalf("truss(0,1) after inserts = %d, want 4", k)
	}

	// Delete one K4 edge → back to truss 3.
	code = mutateJSON(t, ts, http.MethodDelete, "/v1/graphs/g/edges",
		map[string]any{"edges": [][2]uint32{{1, 3}}}, &mr)
	if code != http.StatusOK {
		t.Fatalf("DELETE edges: status %d", code)
	}
	if mr.Version != 3 {
		t.Fatalf("version = %d, want 3", mr.Version)
	}
	if k, _ := trussOf(t, ts, "g", 0, 1); k != 3 {
		t.Fatalf("truss(0,1) after delete = %d, want 3", k)
	}
	if _, ok := trussOf(t, ts, "g", 1, 3); ok {
		t.Fatal("deleted edge still resolves")
	}

	// Error paths.
	if code := mutateJSON(t, ts, http.MethodPost, "/v1/graphs/nope/edges",
		map[string]any{"edges": [][2]uint32{{0, 1}}}, nil); code != http.StatusNotFound {
		t.Fatalf("unknown graph: status %d", code)
	}
	if code := mutateJSON(t, ts, http.MethodPost, "/v1/graphs/g/edges",
		map[string]any{}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d", code)
	}
	if code := mutateJSON(t, ts, http.MethodDelete, "/v1/graphs/g/edges",
		map[string]any{"adds": [][2]uint32{{0, 1}}}, nil); code != http.StatusBadRequest {
		t.Fatalf("DELETE with adds: status %d", code)
	}
	if code := mutateJSON(t, ts, http.MethodPost, "/v1/graphs/g/edges",
		map[string]any{"edges": [][2]uint32{{0, 1 << 30}}}, nil); code != http.StatusBadRequest {
		t.Fatalf("oversized vertex ID: status %d", code)
	}
}

// TestMutateMatchesFreshDecomposition drives a mutation sequence over HTTP
// and diffs every edge's truss number against a fresh decomposition.
func TestMutateMatchesFreshDecomposition(t *testing.T) {
	s, ts := newTestServer(t)
	g := gen.ErdosRenyi(30, 140, 77)
	s.Build("g", g, "inline")

	adds := [][2]uint32{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {31, 32}}
	code := mutateJSON(t, ts, http.MethodPost, "/v1/graphs/g/edges",
		map[string]any{"adds": adds, "dels": [][2]uint32{{0, 2}}}, nil)
	if code != http.StatusOK {
		t.Fatalf("mutation: status %d", code)
	}
	e, _ := s.Lookup("g")
	want := core.Decompose(e.Index.Graph())
	for id, p := range want.Phi {
		if e.Index.EdgeTruss(int32(id)) != p {
			t.Fatalf("edge %d: index says %d, fresh decomposition %d", id, e.Index.EdgeTruss(int32(id)), p)
		}
	}
}

func TestPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	g := gen.WithPlantedCliques(gen.ErdosRenyi(40, 160, 9), []int{6}, 9)

	// First life: build, mutate twice, remember the state.
	s1 := New(Options{Workers: 2, Logf: t.Logf, DataDir: dir})
	s1.Build("main", g, "inline")
	if _, _, err := s1.Mutate(context.Background(), "main",
		[]graph.Edge{{U: 1, V: 2}, {U: 50, V: 51}}, []graph.Edge{g.Edge(3)}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s1.Mutate(context.Background(), "main",
		[]graph.Edge{{U: 5, V: 9}}, nil); err != nil {
		t.Fatal(err)
	}
	// A second graph with no mutations at all.
	s1.Build("side", gen.PaperExample(), "inline")

	e1, _ := s1.Lookup("main")
	wantVersion := e1.Version
	wantPhi := append([]int32(nil), e1.Index.PhiView()...)
	wantEdges := e1.Index.Graph().Edges()
	if wantVersion != 3 {
		t.Fatalf("pre-restart version = %d, want 3", wantVersion)
	}
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Second life: recover from disk only — no Build calls. Replay goes
	// through the shared commit routine (maintenance is counted) and
	// never re-appends the records it reads.
	s2 := New(Options{Workers: 2, Logf: t.Logf, DataDir: dir, Metrics: obs.NewRegistry()})
	if err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	if r, m, a := s2.metrics.replayed.Value(), s2.metrics.maints.Value(), s2.metrics.walAppends.Value(); r != 2 || m != 2 || a != 0 {
		t.Fatalf("recovery counters: replayed=%d maintenance=%d wal_appends=%d, want 2/2/0", r, m, a)
	}
	e2, ok := s2.Lookup("main")
	if !ok || e2.State != StateReady {
		t.Fatalf("main not recovered: %+v", e2)
	}
	if e2.Version != wantVersion {
		t.Fatalf("recovered version = %d, want %d", e2.Version, wantVersion)
	}
	if e2.Index.NumEdges() != len(wantPhi) {
		t.Fatalf("recovered m = %d, want %d", e2.Index.NumEdges(), len(wantPhi))
	}
	for id, p := range wantPhi {
		if e2.Index.Graph().Edge(int32(id)) != wantEdges[id] {
			t.Fatalf("edge %d differs after recovery", id)
		}
		if e2.Index.EdgeTruss(int32(id)) != p {
			t.Fatalf("phi of edge %d = %d after recovery, want %d", id, e2.Index.EdgeTruss(int32(id)), p)
		}
	}
	if e, ok := s2.Lookup("side"); !ok || e.State != StateReady || e.Version != 1 {
		t.Fatalf("side not recovered: %+v", e)
	}

	// Recovered graphs keep serving and mutating.
	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()
	var mr struct {
		Version uint64 `json:"version"`
	}
	if code := mutateJSON(t, ts, http.MethodPost, "/v1/graphs/main/edges",
		map[string]any{"edges": [][2]uint32{{60, 61}}}, &mr); code != http.StatusOK {
		t.Fatalf("post-recovery mutation: status %d", code)
	}
	if mr.Version != wantVersion+1 {
		t.Fatalf("post-recovery version = %d, want %d", mr.Version, wantVersion+1)
	}
}

// TestRecoveryTornWAL appends garbage to the WAL (as a crash mid-append
// would) and checks recovery keeps the intact prefix and drops the torn
// bytes from disk, so a write acked after the restart survives the next
// one — both when the prefix holds a record to replay and when the
// snapshot alone is opened.
func TestRecoveryTornWAL(t *testing.T) {
	for _, tc := range []struct {
		path    string
		mutated bool
	}{{"v2-replay", true}, {"v2-open", false}} {
		t.Run(tc.path, func(t *testing.T) {
			dir := t.TempDir()
			ctx := context.Background()
			s1 := New(Options{Workers: 1, Logf: t.Logf, DataDir: dir})
			s1.Build("g", gen.PaperExample(), "inline")
			if tc.mutated {
				if _, _, err := s1.Mutate(ctx, "g", []graph.Edge{{U: 0, V: 9}}, nil); err != nil {
					t.Fatal(err)
				}
			}
			e1, _ := s1.Lookup("g")
			if err := s1.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}

			walPath := filepath.Join(s1.store.graphDir("g"), walFile)
			f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte{0x55, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
				t.Fatal(err)
			}
			f.Close()

			s2 := New(Options{Workers: 1, Logf: t.Logf, DataDir: dir, Metrics: obs.NewRegistry()})
			if err := s2.Recover(); err != nil {
				t.Fatal(err)
			}
			e2, ok := s2.Lookup("g")
			if !ok || e2.Version != e1.Version {
				t.Fatalf("torn-WAL recovery: got %+v, want version %d", e2, e1.Version)
			}
			if e2.Index.NumEdges() != e1.Index.NumEdges() {
				t.Fatalf("m = %d, want %d", e2.Index.NumEdges(), e1.Index.NumEdges())
			}
			acked, _, err := s2.Mutate(ctx, "g", []graph.Edge{{U: 40, V: 41}}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := s2.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}

			s3 := New(Options{Workers: 1, Logf: t.Logf, DataDir: dir, Metrics: obs.NewRegistry()})
			if err := s3.Recover(); err != nil {
				t.Fatal(err)
			}
			if e3, ok := s3.Lookup("g"); !ok || e3.Version != acked.Version || e3.Index.NumEdges() != e1.Index.NumEdges()+1 {
				t.Fatalf("restart after torn recovery: got %+v, want the write acked at version %d", e3, acked.Version)
			}
		})
	}
}

// TestRecoveryCorruptSnapshot flips a byte in the index snapshot and checks
// the graph is skipped (not wrongly served) while others recover. Byte 20
// sits in a reserved header field, so the preamble checksum catches it at
// Open time — no Verify pass needed. A directory holding only a snapshot
// in the retired v1 format, and no index.tix, is skipped the same way.
func TestRecoveryCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Options{Workers: 1, Logf: t.Logf, DataDir: dir})
	s1.Build("bad", gen.PaperExample(), "inline")
	s1.Build("good", gen.PaperExample(), "inline")

	snapPath := filepath.Join(s1.store.graphDir("bad"), indexFile)
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[20] ^= 0xff
	if err := os.WriteFile(snapPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	legacy := s1.store.graphDir("legacy")
	if err := os.MkdirAll(legacy, 0o755); err != nil {
		t.Fatal(err)
	}
	// The v1 file name, split so no literal of the retired name remains.
	if err := os.WriteFile(filepath.Join(legacy, "snapshot"+".bin"), []byte("TRUSSNP1"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := New(Options{Workers: 1, Logf: t.Logf, DataDir: dir})
	if err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Lookup("bad"); ok {
		t.Fatal("corrupt snapshot was recovered")
	}
	if _, ok := s2.Lookup("legacy"); ok {
		t.Fatal("a directory with no index.tix was recovered")
	}
	if _, ok := s2.Lookup("good"); !ok {
		t.Fatal("intact graph was not recovered")
	}
}

// TestWALCompaction forces a tiny compaction threshold and checks the WAL
// folds into the snapshot while restarts stay faithful.
func TestWALCompaction(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Options{Workers: 1, Logf: t.Logf, DataDir: dir, WALCompactBytes: 1})
	s1.Build("g", gen.PaperExample(), "inline")
	for i := uint32(0); i < 3; i++ {
		if _, _, err := s1.Mutate(context.Background(), "g",
			[]graph.Edge{{U: 20 + i, V: 21 + i}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Compaction runs off the mutation critical path now: poll for the
	// asynchronous fold instead of asserting it happened inline.
	walPath := filepath.Join(s1.store.graphDir("g"), walFile)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(walPath); os.IsNotExist(err) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("WAL not compacted away within deadline")
		}
		time.Sleep(5 * time.Millisecond)
	}
	e1, _ := s1.Lookup("g")

	s2 := New(Options{Workers: 1, Logf: t.Logf, DataDir: dir})
	if err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	e2, ok := s2.Lookup("g")
	if !ok || e2.Version != e1.Version || e2.Index.NumEdges() != e1.Index.NumEdges() {
		t.Fatalf("compacted recovery mismatch: %+v vs version %d m %d", e2, e1.Version, e1.Index.NumEdges())
	}
}

// TestMutateRebuildArbitration: rebuilds win over mutations. While a
// reload is in flight (building placeholder) Mutate refuses, and a
// mutation computed against the pre-rebuild entry that races the
// rebuild's publication is rejected by the sequence guard instead of
// clobbering the fresh decomposition.
func TestMutateRebuildArbitration(t *testing.T) {
	s := New(Options{Workers: 1, Logf: t.Logf})
	s.Build("g", gen.PaperExample(), "v1")

	// A rebuild placeholder is in flight: mutations must be refused even
	// though the previous index is still resident for queries.
	rebuildSeq := s.beginBuild()
	s.install("g", &Entry{Name: "g", State: StateBuilding, Source: "v2"}, rebuildSeq)
	if _, _, err := s.Mutate(context.Background(), "g", []graph.Edge{{U: 0, V: 9}}, nil); !errors.Is(err, ErrNotReady) {
		t.Fatalf("Mutate during rebuild: err = %v, want ErrNotReady", err)
	}

	// The rebuild publishes; a mutation based on the old entry's sequence
	// must not be installable over it. (Mutate re-reads the entry, so
	// drive install directly with the stale sequence.)
	s.build("g", gen.Managers(), "v2", rebuildSeq)
	e, _ := s.Lookup("g")
	if e.Source != "v2" {
		t.Fatalf("rebuild did not publish: %+v", e)
	}
	stale := &Entry{Name: "g", State: StateReady, Index: e.Index, Source: "v1", Version: 99}
	if s.install("g", stale, rebuildSeq-1) {
		t.Fatal("stale-sequence install was accepted over the rebuild")
	}

	// After the rebuild, mutations flow again and bump the version.
	ne, _, err := s.Mutate(context.Background(), "g", []graph.Edge{{U: 0, V: 50}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ne.Version != e.Version+1 || ne.Source != "v2" {
		t.Fatalf("post-rebuild mutation entry: %+v (want version %d on v2)", ne, e.Version+1)
	}
}

// TestRemoveEvictsMutationLock checks the per-name state maps — mutation
// locks, snapshot locks, and ingestion pipelines — do not grow without
// bound on a churning registry. Each iteration runs a mutation through
// the pipeline first, so the old TryLock-based eviction bug (a name
// whose lock was held by an in-flight flush stayed in the map forever)
// would be caught here.
func TestRemoveEvictsMutationLock(t *testing.T) {
	s := New(Options{Workers: 1, Logf: t.Logf})
	for i := 0; i < 50; i++ {
		name := fmt.Sprintf("g%d", i)
		s.Build(name, gen.PaperExample(), "inline")
		if _, _, err := s.Mutate(context.Background(), name, []graph.Edge{{U: 0, V: 9}}, nil); err != nil {
			t.Fatal(err)
		}
		s.Remove(name)
	}
	if n := s.names.size(); n != 0 {
		t.Fatalf("%d mutation locks leaked after removes", n)
	}
	if n := s.snaps.size(); n != 0 {
		t.Fatalf("%d snapshot locks leaked after removes", n)
	}
	s.mu.Lock()
	pipes := len(s.pipes)
	s.mu.Unlock()
	if pipes != 0 {
		t.Fatalf("%d ingestion pipelines leaked after removes", pipes)
	}
}

// TestRemoveDeletesPersistedState checks DELETE also forgets the disk copy.
func TestRemoveDeletesPersistedState(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Options{Workers: 1, Logf: t.Logf, DataDir: dir})
	s1.Build("g", gen.PaperExample(), "inline")
	if !s1.Remove("g") {
		t.Fatal("remove failed")
	}
	s2 := New(Options{Workers: 1, Logf: t.Logf, DataDir: dir})
	if err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Lookup("g"); ok {
		t.Fatal("removed graph came back after restart")
	}
}

// TestRecoveryV2OpenPath: after a clean shutdown each graph dir holds only
// an index.tix, and the next process serves it straight off the mapping —
// no WAL replay, no re-peel, no Build — announcing the path in both the
// restart metrics and the access log. Mutations then patch copy-on-write
// over the mapped base.
func TestRecoveryV2OpenPath(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Options{Workers: 1, Logf: t.Logf, DataDir: dir})
	s1.Build("a", gen.PaperExample(), "inline")
	s1.Build("b", gen.ErdosRenyi(30, 120, 3), "inline")
	ea, _ := s1.Lookup("a")
	wantTruss := ea.Index.EdgeTruss(0)
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	var accessLog bytes.Buffer
	s2 := New(Options{Workers: 1, Logf: t.Logf, DataDir: dir,
		Metrics: obs.NewRegistry(), AccessLog: &accessLog})
	if err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := s2.metrics.restartV2Open.Value(); got != 2 {
		t.Fatalf("restart_path{v2-open} = %d, want 2", got)
	}
	if got := s2.metrics.builds.Value(); got != 0 {
		t.Fatalf("builds during v2-open recovery = %d, want 0", got)
	}
	if got := s2.metrics.replayed.Value(); got != 0 {
		t.Fatalf("WAL batches replayed = %d, want 0", got)
	}
	if got := s2.metrics.ixMapped.Value(); got <= 0 {
		t.Fatalf("truss_indexfile_mapped_bytes = %d, want > 0", got)
	}
	if !strings.Contains(accessLog.String(), "restart_path=v2-open") {
		t.Fatalf("access log missing restart path:\n%s", accessLog.String())
	}
	e2, ok := s2.Lookup("a")
	if !ok || e2.State != StateReady || e2.Index.EdgeTruss(0) != wantTruss {
		t.Fatalf("mapped graph wrong: %+v", e2)
	}
	// The mapped entry accepts mutations: Patch overlays the mmap base.
	if _, _, err := s2.Mutate(context.Background(), "a",
		[]graph.Edge{{U: 0, V: 9}}, nil); err != nil {
		t.Fatalf("mutation over mapped index: %v", err)
	}
	e3, _ := s2.Lookup("a")
	want := core.Decompose(e3.Index.Graph())
	for id, p := range want.Phi {
		if e3.Index.EdgeTruss(int32(id)) != p {
			t.Fatalf("edge %d after patch over mmap: %d, want %d",
				id, e3.Index.EdgeTruss(int32(id)), p)
		}
	}
}

// TestVerifySnapshotsCatchesBitRot: Open's O(kmax) validation deliberately
// skips data-section checksums (that's what keeps readiness independent of
// edge count), so rot inside a payload section maps cleanly by default.
// Options.VerifySnapshots opts into the full CRC sweep at recovery.
func TestVerifySnapshotsCatchesBitRot(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Options{Workers: 1, Logf: t.Logf, DataDir: dir})
	s1.Build("g", gen.PaperExample(), "inline")
	path := filepath.Join(s1.store.graphDir("g"), indexFile)

	// Flip one bit in the phi payload — outside every open-time check.
	f, err := indexfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(-1)
	for _, sec := range f.Sections() {
		if sec.Name == "phi" {
			off = int64(sec.Off)
		}
	}
	f.Close()
	if off < 0 {
		t.Fatal("no phi section")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[off] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := New(Options{Workers: 1, Logf: t.Logf, DataDir: dir, Metrics: obs.NewRegistry()})
	if err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Lookup("g"); !ok {
		t.Fatal("structurally valid file should map without VerifySnapshots")
	}

	s3 := New(Options{Workers: 1, Logf: t.Logf, DataDir: dir,
		Metrics: obs.NewRegistry(), VerifySnapshots: true})
	if err := s3.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s3.Lookup("g"); ok {
		t.Fatal("VerifySnapshots served a bit-rotted snapshot")
	}
}
