package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/server"
)

// firehoseChunk is the server's records-per-acknowledgement; the stream
// always ends on a chunk boundary so every ack covers a full chunk.
const firehoseChunk = 512

// firehoseRun is what one firehose session sent and got back.
type firehoseRun struct {
	count            int               // records sent
	sent             []ingest.Mutation // the records, when asked to keep them
	accepted, failed int
	errMsg           string
	first, end       time.Time
	ackLatency       []time.Duration // per chunk: last record written to ack read
}

// firehose streams the model's mutations as NDJSON over one connection
// for d, reading the per-chunk acks as they arrive, until the summary
// line; keep retains the records sent. It waits for both its goroutines
// before returning.
func firehose(ctx context.Context, base, name string, model *edgeModel, d time.Duration, keep bool) (*firehoseRun, error) {
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/graphs/"+name+"/edges:stream", pr)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	tr := &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}

	fr := &firehoseRun{}
	var mu sync.Mutex
	var chunkSent []time.Time
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		bw := bufio.NewWriterSize(pw, 64<<10)
		var line []byte
		deadline := time.Now().Add(d)
		fr.first = time.Now()
		for n := 1; ; n++ {
			m := model.next()
			fr.count++
			if keep {
				fr.sent = append(fr.sent, m)
			}
			op := "add"
			if m.Op == ingest.OpDel {
				op = "del"
			}
			line = append(line[:0], `{"op":"`...)
			line = append(line, op...)
			line = append(line, `","u":`...)
			line = strconv.AppendUint(line, uint64(m.Edge.U), 10)
			line = append(line, `,"v":`...)
			line = strconv.AppendUint(line, uint64(m.Edge.V), 10)
			line = append(line, "}\n"...)
			if _, err := bw.Write(line); err != nil {
				pw.CloseWithError(err)
				return
			}
			if n%firehoseChunk == 0 {
				if err := bw.Flush(); err != nil {
					pw.CloseWithError(err)
					return
				}
				mu.Lock()
				chunkSent = append(chunkSent, time.Now())
				mu.Unlock()
				if time.Now().After(deadline) {
					break
				}
			}
		}
		pw.Close()
	}()

	resp, err := hc.Do(req)
	if err != nil {
		pr.CloseWithError(err)
		wg.Wait()
		return nil, fmt.Errorf("firehose: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		pr.CloseWithError(fmt.Errorf("status %d", resp.StatusCode))
		wg.Wait()
		return nil, fmt.Errorf("firehose: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for i := 0; sc.Scan(); i++ {
		now := time.Now()
		var ack struct {
			OK       bool   `json:"ok"`
			Error    string `json:"error"`
			Done     bool   `json:"done"`
			Accepted int    `json:"accepted"`
			Failed   int    `json:"failed"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ack); err != nil {
			pr.CloseWithError(err)
			wg.Wait()
			return nil, fmt.Errorf("firehose ack %q: %w", sc.Text(), err)
		}
		if ack.Done {
			fr.end, fr.accepted, fr.failed, fr.errMsg = now, ack.Accepted, ack.Failed, ack.Error
			break
		}
		if !ack.OK {
			fr.errMsg = ack.Error
			continue
		}
		mu.Lock()
		if i < len(chunkSent) {
			fr.ackLatency = append(fr.ackLatency, now.Sub(chunkSent[i]))
		}
		mu.Unlock()
	}
	pr.Close()
	wg.Wait()
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("firehose acks: %w", err)
	}
	if fr.end.IsZero() {
		return nil, fmt.Errorf("firehose ended without a summary line")
	}
	return fr, nil
}

// lww folds mutations in order, last op per edge winning, into one
// unambiguous batch.
func lww(muts []ingest.Mutation) (adds, dels []graph.Edge) {
	last := map[uint64]ingest.Mutation{}
	var order []uint64
	for _, m := range muts {
		k := m.Edge.Key()
		if _, ok := last[k]; !ok {
			order = append(order, k)
		}
		last[k] = m
	}
	var folded []ingest.Mutation
	for _, k := range order {
		folded = append(folded, last[k])
	}
	return split(folded)
}

// copyDir copies the regular files under src to dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
}

// served is a graph's version and histogram as one server answers them.
func served(s *server.Server, name string) (uint64, []int64) {
	e, _ := s.Lookup(name)
	return e.Version, e.Index.Histogram()
}

// pairedFlushes measures what the flush layers cost against the server's
// own flush seconds. Each round streams a short firehose session live,
// then replays the same mutations, from the index the server held when
// the round began, in batches of that round's mean flush size through
// the layers a flush calls, into a fresh store. Pairing keeps the two
// measurements seconds apart, so a change in how busy the host is falls
// on both.
func pairedFlushes(ctx context.Context, cfg config, rep *report, tr *tracer, b *baSetup, base string, model *edgeModel) (float64, *replayStats, error) {
	var live float64
	total := &replayStats{}
	var rounds []string
	var serverWAL, serverMuts float64
	for round := range cfg.size.pairs {
		e, _ := b.srv.Lookup("ba")
		before, err := scrape(b.reg)
		if err != nil {
			return 0, nil, err
		}
		fr, err := firehose(ctx, base, "ba", model, pairLength, true)
		if err != nil {
			return 0, nil, err
		}
		after, err := scrape(b.reg)
		if err != nil {
			return 0, nil, err
		}
		rep.attempted += int64(fr.count)
		rep.failed += int64(fr.count - fr.accepted)
		if fr.accepted != fr.count {
			return 0, nil, checkf("paired firehose: accepted %d of %d", fr.accepted, fr.count)
		}
		secs := delta(before, after, "truss_ingest_flush_seconds_sum")
		live += secs
		if delta(before, after, "truss_wal_compactions_total") == 0 {
			// No truncation reset the WAL gauge: its growth is the bytes
			// the server appended for this round's mutations.
			serverWAL += delta(before, after, "truss_wal_size_bytes", "graph", "ba")
			serverMuts += float64(fr.accepted)
		}
		size := max(int(meanDelta(before, after, "truss_ingest_flush_batch_size", 1)+0.5), 1)
		var batches [][]ingest.Mutation
		for i := 0; i < len(fr.sent); i += size {
			batches = append(batches, fr.sent[i:min(i+size, len(fr.sent))])
		}
		st, err := server.NewStore(cfg.scratch(fmt.Sprintf("replay%d", round)))
		if err != nil {
			return 0, nil, err
		}
		rs, err := replay(ctx, tr, e.Index, batches, st, "ba")
		if err != nil {
			return 0, nil, err
		}
		total.add(rs)
		rounds = append(rounds, fmt.Sprintf("%.3f/%.3f s", rs.totalMS()/1e3, secs))
	}
	rep.note("paired rounds, replayed/live flush seconds: %s", strings.Join(rounds, ", "))
	if serverMuts > 0 {
		rep.note("WAL bytes per mutation: replay %.2f B, the server's truss_wal_size_bytes growth %.2f B (rounds without a compaction)",
			float64(total.walBytes)/float64(total.muts), serverWAL/serverMuts)
	}
	return live, total, nil
}

// pairLength is one paired round's live firehose session.
const pairLength = time.Second

// runIngest streams a balanced mutation stream through the firehose,
// shuts down gracefully, and restarts from the data dir.
func runIngest(cfg config) (*report, error) {
	ctx := context.Background()
	rep := newReport()
	sz := cfg.size
	b, err := setupBA(cfg, rep, false)
	if err != nil {
		return nil, err
	}
	probe := b.g.Edge(0)
	model := newEdgeModel(b.g, cfg.seed)

	ts := httptest.NewServer(b.srv.Handler())
	before, err := scrape(b.reg)
	if err != nil {
		return nil, err
	}
	rt0 := readRuntime()
	fr, err := firehose(ctx, ts.URL, "ba", model, cfg.seconds, false)
	rt1 := readRuntime()
	if err != nil {
		ts.Close()
		return nil, err
	}
	after, err := scrape(b.reg)
	if err != nil {
		ts.Close()
		return nil, err
	}
	rep.attempted += int64(fr.count)
	rep.failed += int64(fr.count - fr.accepted)
	var tr *tracer
	var live float64
	var paired *replayStats
	if cfg.trace {
		tr = newTracer(fmt.Sprintf("ingest-%d", cfg.seed))
		live, paired, err = pairedFlushes(ctx, cfg, rep, tr, b, ts.URL, model)
	}
	ts.Close()
	if err != nil {
		return rep, err
	}
	wall := fr.end.Sub(fr.first).Seconds()
	rate := float64(fr.accepted) / wall
	rep.note("ingest_edges_per_s = %.0f 1/s: %d mutations acked in %.3f s, %.0f flushes, %.0f compactions",
		rate, fr.accepted, wall, flushCount(before, after), delta(before, after, "truss_wal_compactions_total"))
	rep.metrics["write_service_p50_ms"] = quantileMS(fr.ackLatency, 0.5)
	rep.note("write_service_p50_ms = %.3f ms, %s (firehose chunk acks, %d chunks)",
		quantileMS(fr.ackLatency, 0.5), tail("write", fr.ackLatency), len(fr.ackLatency))
	if fr.accepted != fr.count || fr.failed != 0 || fr.errMsg != "" {
		return rep, checkf("firehose summary: accepted %d of %d sent, failed %d, error %q",
			fr.accepted, fr.count, fr.failed, fr.errMsg)
	}

	// Graceful shutdown, then a restart over the WAL tail the stream left.
	// The stopped server is dropped so its index does not stay live.
	preVersion, preHist := served(b.srv, "ba")
	if err := shutdown(b.srv); err != nil {
		return rep, err
	}
	b.srv, b.reg = nil, nil
	srv2, reg2, tailSecs, err := restart(b.dir, "ba", probe)
	if err != nil {
		return rep, err
	}
	tailSc, err := scrape(reg2)
	if err != nil {
		return rep, err
	}
	rep.note("restart over the stream's WAL tail: %.3f s, %.0f batches replayed", tailSecs,
		tailSc.Value("truss_wal_replayed_batches_total"))
	want := newOracle(model.edges())
	v, h := served(srv2, "ba")
	if v != preVersion || !sameHist(h, preHist) || !sameHist(h, want.hist) {
		return rep, checkf("after restart: version %d (before shutdown %d), histogram %v, before %v, fresh decomposition %v",
			v, preVersion, h, preHist, want.hist)
	}

	// Reads of the recovered graph; the edge set is fixed, so every truss
	// number must equal the fresh decomposition's.
	ts2 := httptest.NewServer(srv2.Handler())
	ops := readStream(cfg.seed, model.protected, sz.readProbe, topPct)
	runtime.GC() // every timed phase starts from a quiet heap
	reads, err := readPhase(ctx, rep, ts2.URL, "ba", want.kmax, ops, sz.readRate, time.Now(), want.phi)
	ts2.Close()
	if err != nil {
		return rep, err
	}
	readIx, _ := srv2.Lookup("ba")

	// recover_s restarts over a WAL tail of fixed shape: tailFlushes
	// flushes of tailFlush mutations each. Recovery folds the tail into a
	// snapshot, so each timed restart gets its own copy of the data dir.
	for range sz.tailFlushes {
		batch := make([]ingest.Mutation, sz.tailFlush)
		for i := range batch {
			batch[i] = model.next()
		}
		adds, dels := lww(batch)
		if _, _, err := srv2.Mutate(ctx, "ba", adds, dels); err != nil {
			return rep, err
		}
	}
	finVersion, finHist := served(srv2, "ba")
	if err := shutdown(srv2); err != nil {
		return rep, err
	}
	want = newOracle(model.edges())
	if !sameHist(finHist, want.hist) {
		return rep, checkf("after the tail: histogram %v, fresh decomposition %v", finHist, want.hist)
	}
	var rs restartSamples
	if err := rs.takeCopies(cfg, b.dir, "ba", probe, sz.tailRestarts, sameAs(finVersion, finHist)); err != nil {
		return rep, err
	}
	rep.metrics["recover_s"] = median(rs.secs)
	if err := b.moreBuilds(cfg, sz.baBuilds); err != nil {
		return rep, err
	}
	rep.metrics["build_s"] = median(b.builds)
	rep.note("checks: summary accepted = sent; restarts match the pre-shutdown server and a fresh decomposition (kmax %d)", want.kmax)

	if cfg.trace {
		commitLayers(rep, before, after, wall, rt0, rt1)
		loadgenLayer(rep, reads)
		sc2, err := scrape(reg2)
		if err != nil {
			return rep, err
		}
		rep.metrics["server.read_handler_mean_ms"] = routeMean(obs.Samples{}, sc2,
			"GET /v1/graphs/{name}/truss", "POST /v1/graphs/{name}/query", "GET /v1/graphs/{name}/communities")
		rep.metrics["client.write_service_p50_ms"] = quantileMS(fr.ackLatency, 0.5)
		rep.metrics["server.snapshot_s"] = meanDelta(before, after, "truss_snapshot_seconds", 1)
		rep.metrics["index.lookup_us"] = lookupMicros(readIx.Index, ops)
		if err := recoverLayers(rep, rs.regs, rs.secs); err != nil {
			return rep, err
		}
		if err := traceBAInput(ctx, cfg, rep, tr, b); err != nil {
			return rep, err
		}
		replayLayers(rep, paired)
		replayed := paired.totalMS() / 1e3
		rep.metrics["trace.flush_attributed"] = replayed / live
		rep.note("attribution: replayed coalesce+update+patch+wal = %.3f s over the server's flush seconds %.3f s (%.1f%%, %s)",
			replayed, live, 100*replayed/live, verdict(replayed/live))
		if err := tr.write(filepath.Join(filepath.Dir(cfg.work), fmt.Sprintf("trace-ingest-%d.jsonl", cfg.seed))); err != nil {
			return rep, err
		}
		if err := gate(cfg, "ingest flush", replayed/live); err != nil {
			return rep, err
		}
	}
	rss, err := peakRSSMB()
	rep.metrics["peak_rss_mb"] = rss
	return rep, err
}
