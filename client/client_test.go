package client_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	truss "repro"
	"repro/client"
	"repro/internal/gen"
	"repro/internal/server"
)

func newClient(t *testing.T, url string, opts ...client.Option) *client.Client {
	t.Helper()
	opts = append([]client.Option{client.WithRetryBackoff(time.Millisecond)}, opts...)
	c, err := client.New(url, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestNewValidatesBaseURL: malformed and non-HTTP URLs fail at New, not
// at the first request.
func TestNewValidatesBaseURL(t *testing.T) {
	for _, bad := range []string{"://nope", "ftp://host", "localhost:8080"} {
		if _, err := client.New(bad); err == nil {
			t.Errorf("New(%q) accepted", bad)
		}
	}
	if _, err := client.New("http://localhost:8080/"); err != nil {
		t.Errorf("New rejected a valid URL: %v", err)
	}
}

// TestGraphNamesEscapedOnce: a name needing escaping reaches the server
// as exactly that name — escaped on the wire, decoded back by the mux —
// not double-escaped.
func TestGraphNamesEscapedOnce(t *testing.T) {
	var gotPath string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotPath = r.URL.Path // decoded form
		fmt.Fprintln(w, `{"name":"my graph","state":"ready"}`)
	}))
	defer ts.Close()

	info, err := newClient(t, ts.URL).Graph("my graph").Info(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if gotPath != "/v1/graphs/my graph" {
		t.Fatalf("server saw path %q, want %q", gotPath, "/v1/graphs/my graph")
	}
	if info.State != "ready" {
		t.Fatalf("info = %+v", info)
	}
}

// TestRetriesOn503: read requests retry while a graph is still building
// (503 + Retry-After), then succeed without surfacing the transient.
func TestRetriesOn503(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"error":"graph still building"}`)
			return
		}
		fmt.Fprintln(w, `{"found":true,"truss":4}`)
	}))
	defer ts.Close()

	g := newClient(t, ts.URL, client.WithRetries(3)).Graph("g")
	k, found, err := g.TrussNumber(context.Background(), 1, 2)
	if err != nil || !found || k != 4 {
		t.Fatalf("TrussNumber = (%d,%v,%v), want (4,true,nil)", k, found, err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}
}

// TestRetriesOn429Shed: an admission-control shed (429 + Retry-After,
// the server's load-shedding path) is retried for reads exactly like a
// 503 — the composition that lets clients ride out momentary overload —
// while mutations surface the 429 untried a second time.
func TestRetriesOn429Shed(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprintln(w, `{"error":"server at capacity (2 requests in flight): retry shortly"}`)
			return
		}
		fmt.Fprintln(w, `{"found":true,"truss":4}`)
	}))
	defer ts.Close()

	g := newClient(t, ts.URL, client.WithRetries(3)).Graph("g")
	k, found, err := g.TrussNumber(context.Background(), 1, 2)
	if err != nil || !found || k != 4 {
		t.Fatalf("TrussNumber = (%d,%v,%v), want (4,true,nil)", k, found, err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (2 sheds + success)", got)
	}

	calls.Store(0)
	_, err = g.InsertEdges(context.Background(), []truss.Edge{{U: 1, V: 2}})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("mutation under shed: err = %v, want APIError 429", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("shed mutation saw %d calls, want exactly 1 (never retried)", got)
	}
}

// TestRetriesExhausted: a persistent 503 eventually comes back as the
// 503, not as an infinite wait.
func TestRetriesExhausted(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"error":"graph still building"}`)
	}))
	defer ts.Close()

	g := newClient(t, ts.URL, client.WithRetries(2)).Graph("g")
	_, _, err := g.TrussNumber(context.Background(), 1, 2)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want APIError 503", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (1 + 2 retries)", got)
	}
}

// TestMutationsAreNeverRetried: a failed mutation is reported once; the
// client must not re-apply a batch on its own.
func TestMutationsAreNeverRetried(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"error":"graph still building"}`)
	}))
	defer ts.Close()

	g := newClient(t, ts.URL, client.WithRetries(5)).Graph("g")
	_, err := g.InsertEdges(context.Background(), []truss.Edge{{U: 1, V: 2}})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want APIError 503", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want exactly 1", got)
	}
}

// TestAPIErrorCarriesServerMessage: the server's JSON error body becomes
// the APIError message.
func TestAPIErrorCarriesServerMessage(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprintln(w, `{"error":"no graph \"nope\""}`)
	}))
	defer ts.Close()

	_, err := newClient(t, ts.URL).Graph("nope").Info(context.Background())
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want APIError", err)
	}
	if apiErr.Status != http.StatusNotFound || !strings.Contains(apiErr.Message, "nope") {
		t.Fatalf("APIError = %+v", apiErr)
	}
}

// TestEdgeStreamInterrupted: a connection dropped mid-stream surfaces
// through the iterator's error function — a truncated truss is never
// passed off as complete.
func TestEdgeStreamInterrupted(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		for i := 0; i < 5; i++ {
			fmt.Fprintf(w, "{\"u\":%d,\"v\":%d,\"truss\":3}\n", i, i+10)
		}
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler) // kill the connection mid-body
	}))
	defer ts.Close()

	seq, errf := newClient(t, ts.URL).Graph("g").KTrussEdges(context.Background(), 3)
	n := 0
	for range seq {
		n++
	}
	if err := errf(); err == nil {
		t.Fatalf("stream cut after %d edges reported no error", n)
	}
}

// TestEdgeStreamEarlyBreak: breaking out of the iterator aborts the
// transfer cleanly and reports no error.
func TestEdgeStreamEarlyBreak(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		for i := 0; i < 10000; i++ {
			fmt.Fprintf(w, "{\"u\":%d,\"v\":%d,\"truss\":3}\n", i, i+100000)
		}
	}))
	defer ts.Close()

	seq, errf := newClient(t, ts.URL).Graph("g").KTrussEdges(context.Background(), 3)
	n := 0
	for range seq {
		n++
		if n == 3 {
			break
		}
	}
	if err := errf(); err != nil {
		t.Fatalf("early break reported error: %v", err)
	}
	if n != 3 {
		t.Fatalf("consumed %d edges, want 3", n)
	}
}

// TestNetworkErrorsAreRetried: connection failures count against the
// retry budget and the final error names the attempts.
func TestNetworkErrorsAreRetried(t *testing.T) {
	// A server that is immediately closed: every dial fails fast.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := ts.URL
	ts.Close()

	c := newClient(t, url, client.WithRetries(2))
	_, err := c.Health(context.Background())
	if err == nil {
		t.Fatal("Health against a dead server succeeded")
	}
	if !strings.Contains(err.Error(), "3 attempts") {
		t.Fatalf("err = %v, want mention of 3 attempts", err)
	}
}

// TestLoadEdgesAndLoadPath registers graphs through the client against
// the real server: an inline edge list and a server-side SNAP file must
// both build to what a fresh Run computes, and a missing file must be
// refused with a 400.
func TestLoadEdgesAndLoadPath(t *testing.T) {
	srv := server.New(server.Options{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	c := newClient(t, ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	g := gen.PaperExample()
	d, err := truss.Run(ctx, truss.FromGraph(g))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := truss.AsInMemory(d)

	if err := c.LoadEdges(ctx, "inline", g.Edges()); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitReady(ctx, "inline"); err != nil {
		t.Fatal(err)
	}
	for id, e := range g.Edges() {
		k, ok, err := c.Graph("inline").TrussNumber(ctx, e.U, e.V)
		if err != nil || !ok || k != want.Phi[id] {
			t.Fatalf("TrussNumber%v = (%d, %v, %v), want %d", e, k, ok, err, want.Phi[id])
		}
	}

	path := filepath.Join(t.TempDir(), "g.txt")
	if err := truss.SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	if err := c.LoadPath(ctx, "file", path); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitReady(ctx, "file"); err != nil {
		t.Fatal(err)
	}
	hist, err := c.Graph("file").Histogram(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hist, d.Histogram()) {
		t.Fatalf("Histogram = %v, want %v", hist, d.Histogram())
	}

	err = c.LoadPath(ctx, "missing", filepath.Join(t.TempDir(), "absent.txt"))
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("LoadPath(missing file) = %v, want an APIError with status 400", err)
	}
}
