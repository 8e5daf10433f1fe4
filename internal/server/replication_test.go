package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
)

// TestReadVersionHeaderAndMinVersion: every read answered through an
// entry carries X-Truss-Version, and a request pinning a floor the entry
// has not reached yet gets 412 + Retry-After instead of a stale answer.
func TestReadVersionHeaderAndMinVersion(t *testing.T) {
	s := New(Options{Workers: 1, Logf: t.Logf, Metrics: obs.NewRegistry()})
	s.Build("g", gen.PaperExample(), "inline")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(min string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/graphs/g/histogram", nil)
		if err != nil {
			t.Fatal(err)
		}
		if min != "" {
			req.Header.Set("X-Truss-Min-Version", min)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := get(""); resp.StatusCode != 200 || resp.Header.Get("X-Truss-Version") != "1" {
		t.Fatalf("read: status %d version header %q, want 200 / 1",
			resp.StatusCode, resp.Header.Get("X-Truss-Version"))
	}
	// A satisfied floor answers normally.
	if resp := get("1"); resp.StatusCode != 200 {
		t.Fatalf("min-version 1 over version 1: status %d", resp.StatusCode)
	}
	// An unreachable floor is a 412 naming the entry's actual version.
	resp := get("2")
	if resp.StatusCode != http.StatusPreconditionFailed || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("min-version 2 over version 1: status %d retry-after %q",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	var body struct {
		Version uint64 `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Version != 1 {
		t.Fatalf("412 body version = %d (err %v), want 1", body.Version, err)
	}

	// The floor clears once a mutation advances the graph past it.
	if _, _, err := s.Mutate(context.Background(), "g",
		[]graph.Edge{{U: 90, V: 91}}, nil); err != nil {
		t.Fatal(err)
	}
	if resp := get("2"); resp.StatusCode != 200 || resp.Header.Get("X-Truss-Version") != "2" {
		t.Fatalf("after mutation: status %d version %q, want 200 / 2",
			resp.StatusCode, resp.Header.Get("X-Truss-Version"))
	}
}

// TestReplManifestAndIndexfile: the manifest advertises each graph's
// version and snapshot metadata, and the indexfile endpoint serves the
// exact on-disk bytes with the epoch in a header.
func TestReplManifestAndIndexfile(t *testing.T) {
	dir := t.TempDir()
	s := New(Options{Workers: 1, Logf: t.Logf, DataDir: dir, Metrics: obs.NewRegistry()})
	s.Build("g", gen.PaperExample(), "inline")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var man struct {
		Graphs []struct {
			Name            string `json:"name"`
			Version         uint64 `json:"version"`
			Epoch           int    `json:"epoch"`
			SnapshotVersion uint64 `json:"snapshot_version"`
			SnapshotBytes   int64  `json:"snapshot_bytes"`
		} `json:"graphs"`
	}
	if code := getJSON(t, ts, "/v1/replication/manifest", &man); code != 200 {
		t.Fatalf("manifest: status %d", code)
	}
	if len(man.Graphs) != 1 || man.Graphs[0].Name != "g" {
		t.Fatalf("manifest = %+v", man)
	}
	mg := man.Graphs[0]
	if mg.Version != 1 || mg.SnapshotVersion != 1 || mg.SnapshotBytes <= 0 {
		t.Fatalf("manifest entry = %+v", mg)
	}

	resp, err := http.Get(ts.URL + "/v1/replication/graphs/g/indexfile")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("indexfile: status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Truss-Epoch") != "1" {
		t.Fatalf("indexfile epoch header = %q, want 1", resp.Header.Get("X-Truss-Epoch"))
	}
	got := make([]byte, 0, mg.SnapshotBytes)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		got = append(got, buf[:n]...)
		if err != nil {
			break
		}
	}
	want, err := os.ReadFile(s.store.IndexPath("g"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || int64(len(got)) != mg.SnapshotBytes {
		t.Fatalf("indexfile bytes = %d, want %d (manifest said %d)",
			len(got), len(want), mg.SnapshotBytes)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("indexfile byte %d differs from disk", i)
		}
	}

	if code := getJSON(t, ts, "/v1/replication/graphs/nope/indexfile", nil); code != 404 {
		t.Fatalf("unknown graph indexfile: status %d", code)
	}
}

// TestReplicationRequiresStore: without a data dir there is nothing to
// replicate from, and the endpoints say so with 501.
func TestReplicationRequiresStore(t *testing.T) {
	s := New(Options{Workers: 1, Logf: t.Logf, Metrics: obs.NewRegistry()})
	s.Build("g", gen.PaperExample(), "inline")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, path := range []string{
		"/v1/replication/manifest",
		"/v1/replication/graphs/g/indexfile",
		"/v1/graphs/g/wal",
	} {
		if code := getJSON(t, ts, path, nil); code != http.StatusNotImplemented {
			t.Errorf("GET %s without store: status %d, want 501", path, code)
		}
	}
}

// tailLines opens a WAL tail and returns a line reader plus a closer.
func tailLines(t *testing.T, ts *httptest.Server, name string, from uint64) (func(timeout time.Duration) (WALLine, bool), func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/graphs/%s/wal?from=%d", ts.URL, name, from), nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		resp.Body.Close()
		cancel()
		t.Fatalf("wal tail: status %d", resp.StatusCode)
	}
	lines := make(chan WALLine, 16)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var l WALLine
			if json.Unmarshal(sc.Bytes(), &l) == nil {
				lines <- l
			}
		}
	}()
	next := func(timeout time.Duration) (WALLine, bool) {
		select {
		case l, ok := <-lines:
			return l, ok
		case <-time.After(timeout):
			return WALLine{}, false
		}
	}
	return next, func() { cancel(); resp.Body.Close() }
}

// TestWALTailStreamsAndLongPolls: a tail from version V first drains the
// backlog in order, then blocks and wakes when the next flush commits.
func TestWALTailStreamsAndLongPolls(t *testing.T) {
	dir := t.TempDir()
	s := New(Options{Workers: 1, Logf: t.Logf, DataDir: dir, Metrics: obs.NewRegistry()})
	s.Build("g", gen.PaperExample(), "inline")
	ctx := context.Background()
	if _, _, err := s.Mutate(ctx, "g", []graph.Edge{{U: 90, V: 91}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Mutate(ctx, "g", []graph.Edge{{U: 91, V: 92}}, []graph.Edge{{U: 90, V: 91}}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	next, done := tailLines(t, ts, "g", 1)
	defer done()
	// Backlog: versions 2 and 3, in order, with the right payloads.
	l2, ok := next(5 * time.Second)
	if !ok || l2.Version != 2 || len(l2.Adds) != 1 || l2.Adds[0] != [2]uint32{90, 91} {
		t.Fatalf("first record = %+v ok=%v, want version 2 add [90,91]", l2, ok)
	}
	l3, ok := next(5 * time.Second)
	if !ok || l3.Version != 3 || len(l3.Adds) != 1 || len(l3.Dels) != 1 {
		t.Fatalf("second record = %+v ok=%v, want version 3 with one add and one del", l3, ok)
	}

	// Caught up: nothing arrives until the next commit, which wakes the
	// long-poll without waiting for the heartbeat.
	if l, ok := next(200 * time.Millisecond); ok {
		t.Fatalf("unexpected line while caught up: %+v", l)
	}
	if _, _, err := s.Mutate(ctx, "g", []graph.Edge{{U: 92, V: 93}}, nil); err != nil {
		t.Fatal(err)
	}
	l4, ok := next(5 * time.Second)
	if !ok || l4.Version != 4 {
		t.Fatalf("live record = %+v ok=%v, want version 4", l4, ok)
	}
}

// TestWALTailResync: every unprovable-contiguity case ends the stream
// with an explicit resync line — a from ahead of the graph, a from below
// what the WAL still covers (the build snapshot consumed it), and a
// rebuild landing mid-tail (epoch change).
func TestWALTailResync(t *testing.T) {
	dir := t.TempDir()
	s := New(Options{Workers: 1, Logf: t.Logf, DataDir: dir, Metrics: obs.NewRegistry()})
	s.Build("g", gen.PaperExample(), "inline")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// from ahead of the graph: a primary restored from older state.
	next, done := tailLines(t, ts, "g", 99)
	if l, ok := next(5 * time.Second); !ok || !l.Resync {
		t.Fatalf("from=99: got %+v ok=%v, want resync", l, ok)
	}
	done()

	// from=0 against a freshly built graph: version 1 lives in the
	// snapshot, not the WAL, so only hydration can bridge it.
	next, done = tailLines(t, ts, "g", 0)
	if l, ok := next(5 * time.Second); !ok || !l.Resync {
		t.Fatalf("from=0 after build: got %+v ok=%v, want resync", l, ok)
	}
	done()

	// A caught-up tail sees a rebuild as a resync: the new epoch's
	// versions are a different lineage.
	next, done = tailLines(t, ts, "g", 1)
	defer done()
	if l, ok := next(200 * time.Millisecond); ok {
		t.Fatalf("unexpected line while caught up: %+v", l)
	}
	s.Build("g", gen.PaperExample(), "inline")
	if l, ok := next(5 * time.Second); !ok || !l.Resync {
		t.Fatalf("after rebuild: got %+v ok=%v, want resync", l, ok)
	}
}

// TestApplyReplicated: in-sequence records apply through the maintenance
// path, redelivered records are skipped, and a gap is rejected with
// ErrReplicaGap.
func TestApplyReplicated(t *testing.T) {
	dir := t.TempDir()
	s := New(Options{Workers: 1, Logf: t.Logf, DataDir: dir, Metrics: obs.NewRegistry()})
	s.Build("g", gen.PaperExample(), "inline")
	ctx := context.Background()

	if err := s.ApplyReplicated(ctx, "g", 3, []graph.Edge{{U: 90, V: 91}}, nil); !errors.Is(err, ErrReplicaGap) {
		t.Fatalf("gap record: err = %v, want ErrReplicaGap", err)
	}
	e, _ := s.Lookup("g")
	m1 := e.Index.NumEdges()
	if err := s.ApplyReplicated(ctx, "g", 2, []graph.Edge{{U: 90, V: 91}}, nil); err != nil {
		t.Fatal(err)
	}
	e, _ = s.Lookup("g")
	if e.Version != 2 || e.Index.NumEdges() != m1+1 {
		t.Fatalf("after apply: version=%d m=%d, want 2 / %d", e.Version, e.Index.NumEdges(), m1+1)
	}
	// Redelivery (reconnect overlap) is a no-op, not a double apply.
	if err := s.ApplyReplicated(ctx, "g", 2, []graph.Edge{{U: 91, V: 92}}, nil); err != nil {
		t.Fatal(err)
	}
	e, _ = s.Lookup("g")
	if e.Version != 2 || e.Index.NumEdges() != m1+1 {
		t.Fatalf("after redelivery: version=%d m=%d, want unchanged 2 / %d",
			e.Version, e.Index.NumEdges(), m1+1)
	}
	if err := s.ApplyReplicated(ctx, "nope", 1, nil, nil); !errors.Is(err, ErrNoGraph) {
		t.Fatalf("unknown graph: err = %v, want ErrNoGraph", err)
	}

	// The applied record went through the follower's own WAL: a restart
	// recovers to version 2 without any network.
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	s2 := New(Options{Workers: 1, Logf: t.Logf, DataDir: dir, Metrics: obs.NewRegistry()})
	if err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	e2, ok := s2.Lookup("g")
	if !ok || e2.Version != 2 || e2.Index.NumEdges() != m1+1 {
		t.Fatalf("recovered: %+v (m=%d), want version 2 m=%d", e2, e2.Index.NumEdges(), m1+1)
	}

	// A primary and a follower count the same maintenance for the same
	// batch: one triangle-closing batch through Mutate on one server and
	// through ApplyReplicated on another, each on its own registry.
	tri := []graph.Edge{{U: 90, V: 91}, {U: 90, V: 92}, {U: 91, V: 92}}
	pReg, fReg := obs.NewRegistry(), obs.NewRegistry()
	p := New(Options{Workers: 1, Logf: t.Logf, DataDir: t.TempDir(), Metrics: pReg})
	f := New(Options{Workers: 1, Logf: t.Logf, DataDir: t.TempDir(), Metrics: fReg})
	defer p.Shutdown(ctx)
	p.Build("g", gen.PaperExample(), "inline")
	f.Build("g", gen.PaperExample(), "inline")
	pe, _, err := p.Mutate(ctx, "g", tri, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ApplyReplicated(ctx, "g", pe.Version, tri, nil); err != nil {
		t.Fatal(err)
	}
	pm, fm := registrySamples(t, pReg), registrySamples(t, fReg)
	for _, name := range []string{
		"truss_maintenance_total",
		"truss_maintenance_changed_edges_total",
		"truss_maintenance_region_edges_total",
		"truss_maintenance_fallbacks_total",
		"truss_maintenance_parallel_peels_total",
		"truss_wal_appends_total",
	} {
		if pm.Value(name) != fm.Value(name) {
			t.Errorf("%s: primary %v, follower %v", name, pm.Value(name), fm.Value(name))
		}
	}
	if pm.Value("truss_maintenance_region_edges_total") == 0 {
		t.Error("the triangle-closing batch re-peeled no region")
	}
}

// registrySamples renders reg and parses it back.
func registrySamples(t *testing.T, reg *obs.Registry) obs.Samples {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseExposition(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestHydrateSnapshot: a snapshot streamed from a primary installs at
// the snapshot's own version and the caller's epoch, serving the same
// truss numbers the primary computed.
func TestHydrateSnapshot(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	p := New(Options{Workers: 1, Logf: t.Logf, DataDir: pdir, Metrics: obs.NewRegistry()})
	p.Build("g", gen.PaperExample(), "inline")
	pe, _ := p.Lookup("g")

	src, err := os.Open(p.store.IndexPath("g"))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	f := New(Options{Workers: 1, Logf: t.Logf, DataDir: fdir, Metrics: obs.NewRegistry()})
	e, n, err := f.HydrateSnapshot("g", 7, src)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 || e.Version != pe.Version || e.Epoch != 7 {
		t.Fatalf("hydrated: n=%d version=%d epoch=%d, want >0 / %d / 7", n, e.Version, e.Epoch, pe.Version)
	}
	if e.Index.NumEdges() != pe.Index.NumEdges() || e.Index.KMax() != pe.Index.KMax() {
		t.Fatalf("hydrated index m=%d kmax=%d, want %d/%d",
			e.Index.NumEdges(), e.Index.KMax(), pe.Index.NumEdges(), pe.Index.KMax())
	}
	for id := 0; id < pe.Index.NumEdges(); id++ {
		if e.Index.EdgeTruss(int32(id)) != pe.Index.EdgeTruss(int32(id)) {
			t.Fatalf("edge %d: follower phi %d != primary %d",
				id, e.Index.EdgeTruss(int32(id)), pe.Index.EdgeTruss(int32(id)))
		}
	}

	// Hydration is impossible without a local store to land the file in.
	nostore := New(Options{Workers: 1, Logf: t.Logf, Metrics: obs.NewRegistry()})
	if _, _, err := nostore.HydrateSnapshot("g", 1, src); err == nil {
		t.Fatal("HydrateSnapshot without a data dir should fail")
	}
}

// TestFollowerRejectsMutations: a server in follower mode answers every
// mutation endpoint with 403 and a structured body naming the primary,
// while its read surface keeps serving.
func TestFollowerRejectsMutations(t *testing.T) {
	s := New(Options{Workers: 1, Logf: t.Logf, Metrics: obs.NewRegistry(),
		Follow: "http://primary.example:8080"})
	s.Build("g", gen.PaperExample(), "inline")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	check := func(method, path string) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("%s %s on follower: status %d, want 403", method, path, resp.StatusCode)
		}
		var body struct {
			Error   string `json:"error"`
			Primary string `json:"primary"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		if body.Primary != "http://primary.example:8080" || body.Error == "" {
			t.Fatalf("%s %s body = %+v, want error + primary address", method, path, body)
		}
	}
	check(http.MethodPost, "/v1/graphs/g")
	check(http.MethodDelete, "/v1/graphs/g")
	check(http.MethodPost, "/v1/graphs/g/edges")
	check(http.MethodDelete, "/v1/graphs/g/edges")
	check(http.MethodPost, "/v1/graphs/g/edges:stream")

	// Reads still serve.
	if code := getJSON(t, ts, "/v1/graphs/g/histogram", nil); code != 200 {
		t.Fatalf("read on follower: status %d", code)
	}
	if code := getJSON(t, ts, "/v1/graphs", nil); code != 200 {
		t.Fatalf("list on follower: status %d", code)
	}
}
