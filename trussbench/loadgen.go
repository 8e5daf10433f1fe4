package main

import (
	"context"
	"math/rand"
	"net/http"
	"syscall"
	"time"

	"repro/client"
	"repro/internal/graph"
)

// sample is one open-loop request. Latency runs from the request's due
// time, so a stall also charges the requests queued behind it; late is
// how long the generator itself overshot once the connection was free.
type sample struct {
	latency, late, service time.Duration
	err                    error
}

// openLoop issues n requests at a fixed rate from start, one at a time on
// the caller's goroutine (one connection): request i is due at
// start + i/rate whether or not earlier ones have finished.
func openLoop(start time.Time, rate float64, n int, do func(i int) error) []sample {
	out := make([]sample, n)
	var prevDone time.Time
	for i := range out {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			sleep(d)
		}
		sent := time.Now()
		err := do(i)
		done := time.Now()
		free := due
		if prevDone.After(free) {
			free = prevDone
		}
		out[i] = sample{latency: done.Sub(due), late: max(sent.Sub(free), 0), service: done.Sub(sent), err: err}
		prevDone = done
	}
	return out
}

// sleep blocks in nanosleep(2): time.Sleep overshoots by about half a
// millisecond on Linux, which would swamp sub-millisecond reads.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// isolatedWrites sends n unary inserts to graph name one after another,
// each of an edge between two new vertices numbered from n0: such edges
// close no triangle, so every write costs the same whatever the graph.
func isolatedWrites(ctx context.Context, base, name string, n0 uint32, n int) ([]sample, error) {
	c, tr, err := newClient(base)
	if err != nil {
		return nil, err
	}
	defer tr.CloseIdleConnections()
	g := c.Graph(name)
	out := make([]sample, n)
	for i := range out {
		u := n0 + 2*uint32(i)
		sent := time.Now()
		_, err := g.InsertEdges(ctx, []graph.Edge{{U: u, V: u + 1}})
		d := time.Since(sent)
		out[i] = sample{latency: d, service: d, err: err}
	}
	return out, nil
}

// latencies summarizes samples: latency and service times of the requests
// that succeeded, generator lateness of all, and the failure count.
func latencies(ss []sample) (lat, service, late []time.Duration, failed int) {
	for _, s := range ss {
		late = append(late, s.late)
		if s.err != nil {
			failed++
			continue
		}
		lat = append(lat, s.latency)
		service = append(service, s.service)
	}
	return lat, service, late, failed
}

// newClient returns a client on its own single-connection transport, with
// retries off so a refused or failed request counts as failed.
func newClient(base string) (*client.Client, *http.Transport, error) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	c, err := client.New(base, client.WithRetries(0),
		client.WithHTTPClient(&http.Client{Transport: tr, Timeout: 30 * time.Second}))
	return c, tr, err
}

// Read kinds in the mix: mostly point lookups, some 64-pair batches, and
// the communities of the top truss. The shares (80/16/4 on the BA graph)
// are an assumption of this benchmark, not taken from recorded traffic;
// both read service metrics are weighted by them.
const (
	readPoint = iota
	readBatch
	readTop
)

// readOp is one read of the stream; answers are kept for checking after
// the timed phase.
type readOp struct {
	kind   int
	pairs  []graph.Edge
	truss  []int32
	found  []bool
	nComms int
}

// topPct is the share of BA reads, in percent, that fetch the top truss's
// communities (a small answer there: kmax is about 6).
const topPct = 4

// readStream draws n reads over edges the write stream never deletes;
// topPct percent of them ask for the communities of the top truss.
func readStream(seed int64, protected []graph.Edge, n, topPct int) []readOp {
	r := rand.New(rand.NewSource(seed))
	ops := make([]readOp, n)
	for i := range ops {
		k, np := readPoint, 1
		switch x := r.Intn(100); {
		case x < topPct:
			k, np = readTop, 0
		case x < topPct+16:
			k, np = readBatch, 64
		}
		ops[i].kind = k
		for range np {
			ops[i].pairs = append(ops[i].pairs, protected[r.Intn(len(protected))])
		}
	}
	return ops
}

// doRead sends one read and records its answer.
func doRead(ctx context.Context, g *client.Graph, op *readOp, kmax int32) error {
	switch op.kind {
	case readPoint:
		k, found, err := g.TrussNumber(ctx, op.pairs[0].U, op.pairs[0].V)
		op.truss, op.found = []int32{k}, []bool{found}
		return err
	case readBatch:
		ans, err := g.TrussNumbers(ctx, op.pairs)
		if err != nil {
			return err
		}
		for _, a := range ans {
			op.truss = append(op.truss, a.Truss)
			op.found = append(op.found, a.Found)
		}
		return nil
	default:
		comms, err := g.Communities(ctx, kmax)
		op.nComms = len(comms)
		return err
	}
}

// checkReads verifies the answers of the reads that succeeded: every pair
// was found, the top truss has a community, and, when phi is given (the
// edge set did not change under the reads), every truss number is exact.
func checkReads(ops []readOp, ss []sample, phi map[uint64]int32) error {
	for i, op := range ops {
		if ss[i].err != nil {
			continue
		}
		if op.kind == readTop && op.nComms == 0 {
			return checkf("read %d: no community at kmax", i)
		}
		if len(op.found) != len(op.pairs) {
			return checkf("read %d: %d answers for %d pairs", i, len(op.found), len(op.pairs))
		}
		for j, p := range op.pairs {
			if !op.found[j] {
				return checkf("read %d: edge %v never deleted but not found", i, p)
			}
			if want, ok := phi[p.Key()]; phi != nil && (!ok || want != op.truss[j]) {
				return checkf("read %d: truss%v = %d, want %d", i, p, op.truss[j], want)
			}
		}
	}
	return nil
}

// readPhase runs the read stream open loop from start against graph name
// at base, checks the answers, and reports read_p50_ms and read_p99_ms
// with the sample counts and lateness beside them.
func readPhase(ctx context.Context, rep *report, base, name string, kmax int32, ops []readOp, rate float64, start time.Time, phi map[uint64]int32) ([]sample, error) {
	c, tr, err := newClient(base)
	if err != nil {
		return nil, err
	}
	defer tr.CloseIdleConnections()
	g := c.Graph(name)
	ss := openLoop(start, rate, len(ops), func(i int) error { return doRead(ctx, g, &ops[i], kmax) })
	if err := checkReads(ops, ss, phi); err != nil {
		return ss, err
	}
	lat, svc, late, failed := latencies(ss)
	rep.attempted += int64(len(ss))
	rep.failed += int64(failed)
	rep.metrics["read_service_p50_ms"] = windowed(svc, 0.50)
	rep.metrics["read_service_p90_ms"] = windowed(svc, 0.90)
	var byKind [3][]time.Duration
	for i, s := range ss {
		if s.err == nil {
			byKind[ops[i].kind] = append(byKind[ops[i].kind], s.service)
		}
	}
	rep.note("read_p50_ms = %.3f ms, read_p99_ms = %.3f ms from due time (median of %d windows of %d; whole run %.3f and %.3f ms, %d beyond p99)",
		windowed(lat, 0.5), windowed(lat, 0.99), len(lat)/readWindow, readWindow,
		quantileMS(lat, 0.5), quantileMS(lat, 0.99), beyond(len(lat), 0.99))
	rep.note("reads: %d sent at %.0f/s, %d failed; late p50 %.3f ms, max %.3f ms; service p50 point %.3f ms, batch %.3f ms, top %.3f ms",
		len(ss), rate, failed, quantileMS(late, 0.5), quantileMS(late, 1),
		quantileMS(byKind[readPoint], 0.5), quantileMS(byKind[readBatch], 0.5), quantileMS(byKind[readTop], 0.5))
	return ss, nil
}

// readWindow is how many consecutive reads share one percentile window:
// enough for ten samples beyond the 99th percentile.
const readWindow = 1000

// windowed is the median, over consecutive windows of readWindow
// latencies, of each window's q-quantile in milliseconds, so a stall of
// the host that hits one window does not move the run's figure.
func windowed(lat []time.Duration, q float64) float64 {
	var per []float64
	for i := 0; i+readWindow <= len(lat); i += readWindow {
		per = append(per, quantileMS(lat[i:i+readWindow], q))
	}
	if len(per) == 0 {
		return quantileMS(lat, q)
	}
	return median(per)
}

// loadgenLayer fills the generator and client per-layer metrics.
func loadgenLayer(rep *report, reads []sample) {
	_, service, late, _ := latencies(reads)
	rep.metrics["loadgen.late_p50_ms"] = quantileMS(late, 0.5)
	rep.metrics["loadgen.late_max_ms"] = quantileMS(late, 1)
	rep.metrics["client.read_service_p50_ms"] = quantileMS(service, 0.5)
}
