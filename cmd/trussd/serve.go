package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	truss "repro"
	"repro/internal/replica"
)

// multiFlag collects a repeatable -load flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// openAccessLog resolves the -access-log flag: "" disables, "stderr" and
// "stdout" select the process streams, anything else appends to a file.
func openAccessLog(spec string) (io.Writer, func() error, error) {
	switch spec {
	case "":
		return nil, func() error { return nil }, nil
	case "stderr":
		return os.Stderr, func() error { return nil }, nil
	case "stdout":
		return os.Stdout, func() error { return nil }, nil
	}
	f, err := os.OpenFile(spec, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("opening access log: %w", err)
	}
	return f, f.Close, nil
}

// serveMain runs the `trussd serve` subcommand: an HTTP server answering
// truss queries against resident TrussIndexes, instrumented end to end
// (Prometheus /metrics, /healthz + /readyz probes, structured access
// logs, bounded-concurrency admission control, opt-in pprof).
func serveMain(args []string) error {
	fs := flag.NewFlagSet("trussd serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "decomposition workers (0 = GOMAXPROCS)")
	wait := fs.Bool("wait", false, "block until preloaded graphs are ready before listening")
	dataDir := fs.String("data-dir", "", "durable state directory: snapshots + mutation WALs, restored on startup")
	metricsOn := fs.Bool("metrics", true, "expose Prometheus metrics on GET /metrics")
	pprofOn := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (diagnostic; do not enable on untrusted networks)")
	maxInflight := fs.Int("max-inflight", 1024, "admission limit: concurrent requests beyond this are shed with 429 (0 = unlimited)")
	accessLog := fs.String("access-log", "", "access log destination: empty = off, stderr, stdout, or a file path")
	readHeaderTimeout := fs.Duration("read-header-timeout", 0, "slow-client guard on request headers (0 = 5s default, negative = disabled)")
	readTimeout := fs.Duration("read-timeout", 0, "bound on reading a full request incl. body (0 = 5m default, negative = disabled)")
	idleTimeout := fs.Duration("idle-timeout", 0, "keep-alive idle bound (0 = 2m default, negative = disabled)")
	ingestFlush := fs.Duration("ingest-flush-interval", 0, "ingestion flush window (0 = adaptive: flush whenever the queue drains)")
	ingestBatch := fs.Int("ingest-max-batch", 0, "max mutations group-committed per flush (0 = default)")
	ingestQueue := fs.Int("ingest-queue", 0, "per-graph ingestion queue depth; full queues block producers (0 = default)")
	follow := fs.String("follow", "", "run as a read-only follower replicating from this primary base URL (requires -data-dir)")
	replicaLagMax := fs.Uint64("replica-lag-max", 0, "versions a followed graph may trail the primary before /readyz reports not ready (with -follow; 0 = exactly caught up)")
	replicaRefresh := fs.Duration("replica-refresh", 0, "manifest poll interval in follower mode (0 = 2s)")
	var loads multiFlag
	fs.Var(&loads, "load", "preload a graph as name=path (repeatable)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: trussd serve [-addr :8080] [-workers N] [-load name=path]... [-wait] [-data-dir dir]")
		fmt.Fprintln(os.Stderr, "                    [-metrics] [-pprof] [-max-inflight N] [-access-log dest]")
		fmt.Fprintln(os.Stderr, "                    [-read-header-timeout d] [-read-timeout d] [-idle-timeout d]")
		fmt.Fprintln(os.Stderr, "                    [-ingest-flush-interval d] [-ingest-max-batch N] [-ingest-queue N]")
		fmt.Fprintln(os.Stderr, "                    [-follow primary-url] [-replica-lag-max N] [-replica-refresh d]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *follow != "" {
		if *dataDir == "" {
			return errors.New("-follow requires -data-dir: the follower's resumability rests on its own durable state")
		}
		if len(loads) > 0 {
			return errors.New("-load cannot be combined with -follow: a follower's graphs come from its primary")
		}
	}

	logger := log.New(os.Stderr, "trussd: ", log.LstdFlags)
	accessOut, closeAccess, err := openAccessLog(*accessLog)
	if err != nil {
		return err
	}
	defer func() { _ = closeAccess() }()
	srv := truss.NewServer(truss.ServerOptions{
		Workers:                *workers,
		Logf:                   logger.Printf,
		DataDir:                *dataDir,
		MaxInFlight:            *maxInflight,
		AccessLog:              accessOut,
		DisableMetricsEndpoint: !*metricsOn,
		EnablePprof:            *pprofOn,
		IngestFlushInterval:    *ingestFlush,
		IngestMaxBatch:         *ingestBatch,
		IngestMaxQueue:         *ingestQueue,
		Follow:                 *follow,
	})
	if *dataDir != "" {
		// Restore persisted graphs before preloads: a -load of an already
		// persisted name deliberately rebuilds (and re-snapshots) it.
		if err := srv.Recover(); err != nil {
			return fmt.Errorf("recovering %s: %w", *dataDir, err)
		}
	}
	var names []string
	for _, spec := range loads {
		name, path, ok := strings.Cut(spec, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("bad -load %q: want name=path", spec)
		}
		if err := srv.LoadFileAsync(name, path); err != nil {
			return fmt.Errorf("preloading %q: %w", name, err)
		}
		logger.Printf("graph %q building from %s", name, path)
		names = append(names, name)
	}
	if *wait {
		for _, name := range names {
			if err := srv.WaitReady(name, time.Hour); err != nil {
				return err
			}
		}
	}

	// Every graph is registered by now: recovered entries are resident,
	// preloads are at least building placeholders, so /readyz flips to 200
	// exactly when the last initial build publishes.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := truss.NewHTTPServer(srv.Handler(), truss.HTTPTimeouts{
		ReadHeader: *readHeaderTimeout,
		Read:       *readTimeout,
		Idle:       *idleTimeout,
	})
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var followerDone chan struct{}
	if *follow != "" {
		fl, err := replica.New(replica.Config{
			Primary: *follow,
			Server:  srv,
			LagMax:  *replicaLagMax,
			Refresh: *replicaRefresh,
			Logf:    logger.Printf,
		})
		if err != nil {
			return err
		}
		// /readyz now additionally demands the replica be caught up within
		// the lag bound, so a load balancer only admits traffic to a
		// follower whose answers are current enough.
		srv.SetReadyProbe(fl.Probe)
		followerDone = make(chan struct{})
		go func() {
			defer close(followerDone)
			_ = fl.Run(ctx)
		}()
		logger.Printf("follower mode: replicating from %s (lag max %d)", *follow, *replicaLagMax)
	}
	errc := make(chan error, 1)
	logger.Printf("ops: metrics=%v pprof=%v max-inflight=%d access-log=%q", *metricsOn, *pprofOn, *maxInflight, *accessLog)
	logger.Printf("listening on %s", ln.Addr())
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		logger.Printf("shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		// Drain in-flight HTTP requests first, then cancel background
		// rebuilds: their lifecycle context aborts the decomposition at
		// its next peeling checkpoint.
		if err := hs.Shutdown(shutCtx); err != nil {
			return err
		}
		// The canceled lifecycle ctx is already unwinding the follower's
		// tails; wait for them before tearing the registry down.
		if followerDone != nil {
			<-followerDone
		}
		if err := srv.Shutdown(shutCtx); err != nil {
			return fmt.Errorf("aborting background builds: %w", err)
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
