package truss_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
)

// buildCmd compiles one of the repository's binaries into dir and returns
// its path.
func buildCmd(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Env = os.Environ()
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func runCmd(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

// TestCLIPipeline drives the three user-facing binaries end to end:
// generate a graph, inspect it, decompose it with every algorithm, render
// it, and check the outputs agree.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped with -short")
	}
	dir := t.TempDir()
	graphgen := buildCmd(t, dir, "graphgen")
	graphstat := buildCmd(t, dir, "graphstat")
	trussd := buildCmd(t, dir, "trussd")

	gpath := filepath.Join(dir, "g.txt")
	out := runCmd(t, graphgen, "-model", "community", "-blocks", "12", "-blocksize", "10",
		"-pin", "0.7", "-seed", "5", "-out", gpath)
	if !strings.Contains(out, "wrote") {
		t.Fatalf("graphgen output: %s", out)
	}

	out = runCmd(t, graphstat, "-in", gpath, "-core")
	if !strings.Contains(out, "kmax:") || !strings.Contains(out, "cmax-core:") {
		t.Fatalf("graphstat output: %s", out)
	}
	// Extract kmax for cross-checking trussd runs.
	var kmaxLine string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "kmax:") {
			kmaxLine = strings.TrimSpace(strings.TrimPrefix(line, "kmax:"))
		}
	}
	if kmaxLine == "" {
		t.Fatalf("no kmax in graphstat output: %s", out)
	}

	for _, algo := range []string{"inmem", "baseline", "bottomup", "topdown", "mr"} {
		out = runCmd(t, trussd, "-in", gpath, "-algo", algo, "-v")
		if !strings.Contains(out, "kmax:       "+kmaxLine) {
			t.Fatalf("algo %s: kmax mismatch (want %s):\n%s", algo, kmaxLine, out)
		}
	}

	// Per-edge output and DOT rendering.
	classes := filepath.Join(dir, "classes.txt")
	dot := filepath.Join(dir, "g.dot")
	out = runCmd(t, trussd, "-in", gpath, "-algo", "inmem",
		"-out", classes, "-dot", dot, "-communities", "4")
	if !strings.Contains(out, "communities") {
		t.Fatalf("missing communities output: %s", out)
	}
	cdata, err := os.ReadFile(classes)
	if err != nil {
		t.Fatal(err)
	}
	if len(strings.Split(strings.TrimSpace(string(cdata)), "\n")) < 100 {
		t.Fatalf("classes file too small:\n%.200s", cdata)
	}
	ddata, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(ddata), "graph ") {
		t.Fatal("dot file malformed")
	}

	// Dataset-analog generation (quick variant for speed).
	apath := filepath.Join(dir, "p2p.bin")
	runCmd(t, graphgen, "-dataset", "P2P", "-quick", "-out", apath)
	out = runCmd(t, graphstat, "-in", apath)
	if !strings.Contains(out, "|E|:") {
		t.Fatalf("graphstat on analog: %s", out)
	}

	// Error handling: bad flags exit non-zero.
	if _, err := exec.Command(trussd, "-in", gpath, "-algo", "nope").CombinedOutput(); err == nil {
		t.Fatal("unknown algorithm should fail")
	}
	if _, err := exec.Command(graphgen, "-out", filepath.Join(dir, "x.txt")).CombinedOutput(); err == nil {
		t.Fatal("graphgen without model should fail")
	}
	if _, err := exec.Command(graphstat, "-in", filepath.Join(dir, "missing.txt")).CombinedOutput(); err == nil {
		t.Fatal("graphstat on missing file should fail")
	}
}

// startServe launches a trussd serve process and returns its address and
// a stopper (interrupt when graceful, SIGKILL otherwise).
func startServe(t *testing.T, trussd string, args ...string) (addr string, stop func(graceful bool)) {
	t.Helper()
	cmd := exec.Command(trussd, append([]string{"serve", "-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "listening on "); i >= 0 {
			addr = strings.TrimSpace(line[i+len("listening on "):])
			break
		}
	}
	if addr == "" {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("server never reported its listen address")
	}
	go io.Copy(io.Discard, stderr)
	return addr, func(graceful bool) {
		if graceful {
			cmd.Process.Signal(os.Interrupt)
		} else {
			cmd.Process.Kill()
		}
		done := make(chan struct{})
		go func() { cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			<-done
		}
	}
}

// TestServeDurableRestart kills a trussd serve process (no graceful
// shutdown) after mutating a graph over HTTP, restarts it on the same
// -data-dir with no -load flags, and expects the graph back at the
// pre-crash version with the mutated truss numbers — recovered from
// snapshot + WAL, not recomputed from any input file.
func TestServeDurableRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped with -short")
	}
	dir := t.TempDir()
	trussd := buildCmd(t, dir, "trussd")
	dataDir := filepath.Join(dir, "state")

	gpath := filepath.Join(dir, "square.txt")
	// A triangle plus a pendant: truss(0,1) = 3.
	if err := os.WriteFile(gpath, []byte("0 1\n1 2\n0 2\n2 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	getJSON := func(addr, path string, want int) map[string]any {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return body
	}

	addr, stop := startServe(t, trussd, "-data-dir", dataDir, "-load", "g="+gpath, "-wait")
	// Complete K4 over HTTP: truss(0,1) becomes 4 at version 2.
	resp, err := http.Post("http://"+addr+"/v1/graphs/g/edges", "application/json",
		strings.NewReader(`{"edges":[[0,3],[1,3]]}`))
	if err != nil {
		t.Fatal(err)
	}
	var mut map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&mut); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || mut["version"] != float64(2) {
		t.Fatalf("mutation: status %d body %v", resp.StatusCode, mut)
	}
	stop(false) // crash: no graceful shutdown, the WAL is all that survives

	addr, stop = startServe(t, trussd, "-data-dir", dataDir)
	info := getJSON(addr, "/v1/graphs/g", http.StatusOK)
	if info["state"] != string("ready") || info["version"] != float64(2) || info["edges"] != float64(6) {
		t.Fatalf("recovered info = %v", info)
	}
	if body := getJSON(addr, "/v1/graphs/g/truss?u=0&v=1", http.StatusOK); body["truss"] != float64(4) {
		t.Fatalf("recovered truss(0,1) = %v", body)
	}
	// And the recovered graph keeps accepting mutations.
	req, _ := http.NewRequest(http.MethodDelete, "http://"+addr+"/v1/graphs/g/edges",
		strings.NewReader(`{"edges":[[1,3]]}`))
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var dmut map[string]any
	json.NewDecoder(dresp.Body).Decode(&dmut)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK || dmut["version"] != float64(3) {
		t.Fatalf("post-recovery mutation: status %d body %v", dresp.StatusCode, dmut)
	}
	if body := getJSON(addr, "/v1/graphs/g/truss?u=0&v=1", http.StatusOK); body["truss"] != float64(3) {
		t.Fatalf("post-recovery truss(0,1) = %v", body)
	}

	// metricValue scrapes one exact series line off /metrics.
	metricValue := func(addr, series string) string {
		t.Helper()
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(line, series+" ") {
				return strings.TrimSpace(strings.TrimPrefix(line, series))
			}
		}
		return ""
	}

	// The crash left the K4 WAL record behind, so this life patched it
	// over the mapped snapshot — no re-peel — then compacted.
	if got := metricValue(addr, `truss_restart_path_total{path="v2-replay"}`); got != "1" {
		t.Fatalf(`restart_path{v2-replay} = %q, want "1"`, got)
	}
	stop(true)

	// Third life: the DELETE above left one more WAL record; replaying
	// it folds the registry to a bare snapshot.
	addr, stop = startServe(t, trussd, "-data-dir", dataDir)
	if got := metricValue(addr, `truss_restart_path_total{path="v2-replay"}`); got != "1" {
		t.Fatalf(`second restart_path{v2-replay} = %q, want "1"`, got)
	}
	stop(true)

	// Fourth life: nothing but the index snapshot on disk. The server
	// maps it and serves — zero replay, zero rebuild — and says so.
	addr, stop = startServe(t, trussd, "-data-dir", dataDir)
	defer stop(true)
	if body := getJSON(addr, "/v1/graphs/g/truss?u=0&v=1", http.StatusOK); body["truss"] != float64(3) {
		t.Fatalf("mapped truss(0,1) = %v", body)
	}
	if got := metricValue(addr, `truss_restart_path_total{path="v2-open"}`); got != "1" {
		t.Fatalf(`restart_path{v2-open} = %q, want "1"`, got)
	}
	if got := metricValue(addr, "truss_indexfile_mapped_bytes"); got == "" || got == "0" {
		t.Fatalf("truss_indexfile_mapped_bytes = %q, want > 0", got)
	}
}

// TestServeCrashMidFlushHonorsAcks is the crash half of the group-commit
// contract: concurrent writers hammer single-edge POSTs while the server
// is SIGKILLed mid-storm — some flushes die between WAL append and
// response, some between fsync and ack. Whatever the kill point, every
// mutation the server ACKNOWLEDGED must survive the restart at or above
// its acked version; unacked mutations may or may not (both are
// correct).
func TestServeCrashMidFlushHonorsAcks(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped with -short")
	}
	dir := t.TempDir()
	trussd := buildCmd(t, dir, "trussd")
	dataDir := filepath.Join(dir, "state")

	gpath := filepath.Join(dir, "tri.txt")
	if err := os.WriteFile(gpath, []byte("0 1\n1 2\n0 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	addr, stop := startServe(t, trussd, "-data-dir", dataDir, "-load", "g="+gpath, "-wait")

	type ack struct {
		u, v    uint32
		version uint64
	}
	var (
		mu    sync.Mutex
		acked []ack
	)
	var wg sync.WaitGroup
	killed := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-killed:
					return
				default:
				}
				u, v := uint32(100+w*1000+i), uint32(200+w*1000+i)
				resp, err := http.Post("http://"+addr+"/v1/graphs/g/edges", "application/json",
					strings.NewReader(fmt.Sprintf(`{"edges":[[%d,%d]]}`, u, v)))
				if err != nil {
					return // the kill landed mid-request: this one was never acked
				}
				var body map[string]any
				decErr := json.NewDecoder(resp.Body).Decode(&body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || decErr != nil {
					return
				}
				mu.Lock()
				acked = append(acked, ack{u, v, uint64(body["version"].(float64))})
				mu.Unlock()
			}
		}(w)
	}
	// Let the storm build up real group commits, then kill without mercy.
	for {
		mu.Lock()
		n := len(acked)
		mu.Unlock()
		if n >= 64 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop(false) // SIGKILL mid-storm
	close(killed)
	wg.Wait()

	mu.Lock()
	var maxAcked uint64
	for _, a := range acked {
		if a.version > maxAcked {
			maxAcked = a.version
		}
	}
	t.Logf("%d acked mutations, max acked version %d", len(acked), maxAcked)
	mu.Unlock()

	addr, stop = startServe(t, trussd, "-data-dir", dataDir)
	defer stop(true)
	resp, err := http.Get("http://" + addr + "/v1/graphs/g")
	if err != nil {
		t.Fatal(err)
	}
	var info map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info["state"] != "ready" {
		t.Fatalf("recovered state = %v", info)
	}
	if got := uint64(info["version"].(float64)); got < maxAcked {
		t.Fatalf("recovered version %d < max acked version %d: acked work lost", got, maxAcked)
	}
	for _, a := range acked {
		resp, err := http.Get(fmt.Sprintf("http://%s/v1/graphs/g/truss?u=%d&v=%d", addr, a.u, a.v))
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if body["found"] != true {
			t.Fatalf("edge (%d,%d) acked at version %d lost in the crash", a.u, a.v, a.version)
		}
	}
}

// TestServeFirehose drives the NDJSON streaming endpoint against a real
// process: per-chunk acks arrive in order, the summary reconciles, and
// the streamed edges are queryable (and durable across a graceful
// restart).
func TestServeFirehose(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped with -short")
	}
	dir := t.TempDir()
	trussd := buildCmd(t, dir, "trussd")
	dataDir := filepath.Join(dir, "state")
	gpath := filepath.Join(dir, "tri.txt")
	if err := os.WriteFile(gpath, []byte("0 1\n1 2\n0 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	addr, stop := startServe(t, trussd, "-data-dir", dataDir, "-load", "g="+gpath, "-wait")

	var b strings.Builder
	const n = 1500 // > 2 chunks at the server's 512-record chunking
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `{"u":%d,"v":%d}`+"\n", 10+i, 11+i)
	}
	b.WriteString(`{"op":"del","u":10,"v":11}` + "\n")
	resp, err := http.Post("http://"+addr+"/v1/graphs/g/edges:stream",
		"application/x-ndjson", strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("firehose status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	var lines []map[string]any
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad ack line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) < 4 { // >= 3 chunk acks + summary
		t.Fatalf("expected chunked acks, got %d lines", len(lines))
	}
	sum := lines[len(lines)-1]
	if sum["done"] != true || sum["ok"] != true || int(sum["accepted"].(float64)) != n+1 {
		t.Fatalf("summary = %v", sum)
	}
	var last uint64
	for _, ln := range lines[:len(lines)-1] {
		if ln["ok"] != true {
			t.Fatalf("chunk failed: %v", ln)
		}
		if v := uint64(ln["version"].(float64)); v < last {
			t.Fatalf("acks out of order: %d after %d", v, last)
		} else {
			last = v
		}
	}

	check := func(addr string) {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s/v1/graphs/g/truss?u=%d&v=%d", addr, 10+n-1, 11+n-1))
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]any
		json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if body["found"] != true {
			t.Fatalf("last streamed edge missing: %v", body)
		}
		resp, err = http.Get("http://" + addr + "/v1/graphs/g/truss?u=10&v=11")
		if err != nil {
			t.Fatal(err)
		}
		body = map[string]any{}
		json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if body["found"] == true {
			t.Fatal("deleted edge still present")
		}
	}
	check(addr)
	stop(true)

	// The firehose's acks were group commits: everything survives restart.
	addr, stop = startServe(t, trussd, "-data-dir", dataDir)
	defer stop(true)
	check(addr)
}

// TestServeEndToEnd starts `trussd serve` as a real process, preloads the
// paper's running example, and exercises each query endpoint over HTTP.
func TestServeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped with -short")
	}
	dir := t.TempDir()
	trussd := buildCmd(t, dir, "trussd")

	// Write the paper's Figure 2 example as a SNAP file.
	gpath := filepath.Join(dir, "paper.txt")
	var sb strings.Builder
	sb.WriteString("# paper example\n")
	for _, e := range gen.PaperExample().Edges() {
		fmt.Fprintf(&sb, "%d %d\n", e.U, e.V)
	}
	if err := os.WriteFile(gpath, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(trussd, "serve", "-addr", "127.0.0.1:0", "-load", "paper="+gpath, "-wait")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Signal(os.Interrupt)
		done := make(chan struct{})
		go func() { cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			<-done
		}
	}()

	// The server logs "listening on <addr>" once the socket is bound.
	var addr string
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "listening on "); i >= 0 {
			addr = strings.TrimSpace(line[i+len("listening on "):])
			break
		}
	}
	if addr == "" {
		t.Fatalf("server never reported its listen address")
	}
	go io.Copy(io.Discard, stderr) // keep the pipe drained

	get := func(path string) map[string]any {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return body
	}

	if body := get("/healthz"); body["ok"] != true {
		t.Fatalf("healthz = %v", body)
	}
	// Edge (0,1) is in the 5-class (the {a..e} clique of Example 2).
	if body := get("/v1/graphs/paper/truss?u=0&v=1"); body["truss"] != float64(5) {
		t.Fatalf("truss(0,1) = %v", body)
	}
	// Its 5-truss community covers exactly vertices 0..4.
	body := get("/v1/graphs/paper/community?u=0&v=1&k=5")
	if vs, ok := body["vertices"].([]any); !ok || len(vs) != 5 {
		t.Fatalf("community(0,1,5) = %v", body)
	}
	// Histogram matches |Phi_5| = 10, and the top class is k=5.
	hist := get("/v1/graphs/paper/histogram")
	classes, _ := hist["classes"].(map[string]any)
	if classes["5"] != float64(10) {
		t.Fatalf("histogram = %v", hist)
	}
	top := get("/v1/graphs/paper/topclasses?t=1")
	if cs, ok := top["classes"].([]any); !ok || len(cs) != 1 ||
		cs[0].(map[string]any)["k"] != float64(5) {
		t.Fatalf("topclasses = %v", top)
	}
}

// TestQueryCLI drives `trussd query` (built on the client package)
// against a real `trussd serve` process: single lookups, a batched
// lookup round-trip, histogram, top classes, communities, and the
// NDJSON edge stream.
func TestQueryCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped with -short")
	}
	dir := t.TempDir()
	trussd := buildCmd(t, dir, "trussd")

	gpath := filepath.Join(dir, "paper.txt")
	var sb strings.Builder
	for _, e := range gen.PaperExample().Edges() {
		fmt.Fprintf(&sb, "%d %d\n", e.U, e.V)
	}
	if err := os.WriteFile(gpath, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	addr, stop := startServe(t, trussd, "-load", "paper="+gpath, "-wait")
	defer stop(true)
	server := "http://" + addr

	query := func(args ...string) string {
		t.Helper()
		return runCmd(t, trussd, append([]string{"query", "-server", server, "-graph", "paper"}, args...)...)
	}

	// One edge: (0,1) is in the paper's 5-clique.
	if out := query("-truss", "0,1"); !strings.Contains(out, "truss(0,1) = 5") {
		t.Fatalf("-truss output: %q", out)
	}
	// A non-edge is reported, not an error.
	if out := query("-truss", "0,11"); !strings.Contains(out, "not in graph") {
		t.Fatalf("-truss miss output: %q", out)
	}

	// Batched lookup: every known edge plus one miss, one round-trip.
	phi := gen.PaperExamplePhi()
	var pairs strings.Builder
	pairs.WriteString("# batch\n")
	for key := range phi {
		fmt.Fprintf(&pairs, "%d %d\n", uint32(key>>32), uint32(key))
	}
	pairs.WriteString("0 11\n")
	bpath := filepath.Join(dir, "pairs.txt")
	if err := os.WriteFile(bpath, []byte(pairs.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(query("-batch", bpath)), "\n")
	if len(lines) != len(phi)+1 {
		t.Fatalf("-batch returned %d lines, want %d", len(lines), len(phi)+1)
	}
	misses := 0
	for _, line := range lines {
		fields := strings.Fields(line)
		if len(fields) != 3 {
			t.Fatalf("-batch line %q", line)
		}
		if fields[2] == "-" {
			misses++
		}
	}
	if misses != 1 {
		t.Fatalf("-batch reported %d misses, want 1", misses)
	}

	// Histogram and top classes match Example 2.
	if out := query("-histogram"); !strings.Contains(out, "|Phi_5| = 10") {
		t.Fatalf("-histogram output: %q", out)
	}
	if out := query("-top", "1"); strings.TrimSpace(out) != "k=5\tsize=10" {
		t.Fatalf("-top output: %q", out)
	}

	// Communities at k=3 (the example has two 3-truss communities).
	if out := query("-communities", "3"); !strings.Contains(out, "3-truss communities:") {
		t.Fatalf("-communities output: %q", out)
	}

	// Edge streaming: the 5-truss has exactly 10 edges, all with phi 5.
	// (runCmd merges stderr, so drop the "streamed N edges" status line.)
	out := strings.TrimSpace(query("-edges", "5"))
	var elines []string
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, "streamed") {
			elines = append(elines, line)
		}
	}
	if len(elines) != 10 {
		t.Fatalf("-edges 5 streamed %d lines, want 10:\n%s", len(elines), out)
	}
	for _, line := range elines {
		if !strings.HasSuffix(line, "\t5") {
			t.Fatalf("-edges 5 line %q", line)
		}
	}
}

// TestIndexCLI drives the offline snapshot tooling: build an indexfile
// from a graph file, inspect its section table, verify its checksums,
// and make sure verify actually fails once a byte rots.
func TestIndexCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped with -short")
	}
	dir := t.TempDir()
	trussd := buildCmd(t, dir, "trussd")

	gpath := filepath.Join(dir, "g.txt")
	var sb strings.Builder
	for _, e := range gen.PaperExample().Edges() {
		fmt.Fprintf(&sb, "%d %d\n", e.U, e.V)
	}
	if err := os.WriteFile(gpath, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	tix := filepath.Join(dir, "g.tix")
	out := runCmd(t, trussd, "index", "build", "-in", gpath, "-out", tix)
	if !strings.Contains(out, "kmax=5") {
		t.Fatalf("index build output: %s", out)
	}

	out = runCmd(t, trussd, "index", "inspect", tix)
	for _, want := range []string{"format:        v1", "kmax=5", "csr-adjv", "leveldir", "source:        " + gpath} {
		if !strings.Contains(out, want) {
			t.Fatalf("index inspect output missing %q:\n%s", want, out)
		}
	}

	out = runCmd(t, trussd, "index", "verify", tix)
	if !strings.Contains(out, "ok (") {
		t.Fatalf("index verify output: %s", out)
	}

	// Rot a payload byte: inspect (open-time checks only) still works,
	// verify must fail.
	raw, err := os.ReadFile(tix)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-5] ^= 0x40
	if err := os.WriteFile(tix, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command(trussd, "index", "verify", tix).CombinedOutput(); err == nil {
		t.Fatalf("verify accepted a rotted file:\n%s", out)
	} else if !strings.Contains(string(out), "corrupt") {
		t.Fatalf("verify error does not mention corruption:\n%s", out)
	}

	// Usage errors exit non-zero.
	if _, err := exec.Command(trussd, "index").CombinedOutput(); err == nil {
		t.Fatal("bare `trussd index` should fail")
	}
	if _, err := exec.Command(trussd, "index", "frobnicate").CombinedOutput(); err == nil {
		t.Fatal("unknown subcommand should fail")
	}
}
