// Command uled serves universal leader election over HTTP: submit single
// elections or whole sweep specs, stream results back as NDJSON, and run
// thousands of elections concurrently on a bounded pool of reusable
// engine slots (internal/serve).
//
// Usage:
//
//	uled -addr :8080
//	uled -addr 127.0.0.1:0 -addr-file /tmp/uled.addr   # ephemeral port
//	uled -slots 8 -job-ttl 5m -pprof
//
// Endpoints (contract in docs/SERVICE.md):
//
//	POST   /v1/elections   {"graph":"ring:64","algo":"leastel","seed":7}
//	POST   /v1/sweeps      a ule-sweep/v3 spec; response is NDJSON
//	GET    /v1/jobs/{id}   async job status/result; DELETE cancels
//	GET    /healthz        liveness
//	GET    /debug/vars     expvar counters (uled_* series)
//
// SIGINT/SIGTERM shut down gracefully: admission stops, in-flight jobs
// drain (up to -drain-timeout), then the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ule/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "uled:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("uled", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":8080", "listen address (host:0 picks an ephemeral port)")
		addrFile  = fs.String("addr-file", "", "write the resolved listen address to this file (for ephemeral ports)")
		slots     = fs.Int("slots", 0, "concurrent worker slots (0 = GOMAXPROCS)")
		maxJobs   = fs.Int("max-jobs", 0, "retained async jobs (0 = 256)")
		jobTTL    = fs.Duration("job-ttl", 0, "finished-job retention before GC (0 = 10m)")
		maxRounds = fs.Int("max-rounds-cap", 0, "reject requests asking for more rounds than this (0 = 1<<20)")
		maxTrials = fs.Int("max-trials-cap", 0, "reject sweeps expanding past this many trials (0 = 1<<20)")
		maxEdges  = fs.Int("max-edges-cap", 0, "reject graph specs expanding past this many edges, or a quarter as many nodes (0 = 1<<22)")
		drain     = fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain budget")
		withPprof = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	m := serve.NewManager(serve.Config{
		Slots:   *slots,
		MaxJobs: *maxJobs, JobTTL: *jobTTL,
		MaxRounds: *maxRounds, MaxTrials: *maxTrials, MaxEdges: *maxEdges,
	})
	srv := &http.Server{
		Handler:           serve.NewHandler(m, serve.HandlerConfig{Pprof: *withPprof}),
		ReadHeaderTimeout: 10 * time.Second,
		// Reap parked keep-alive connections so sustained load does not
		// accumulate per-connection goroutines.
		IdleTimeout: 30 * time.Second,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	resolved := ln.Addr().String()
	if *addrFile != "" {
		// Write-then-rename so a polling parent never reads a torn file.
		tmp := *addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(resolved), 0o644); err != nil {
			return err
		}
		if err := os.Rename(tmp, *addrFile); err != nil {
			return err
		}
	}
	fmt.Printf("uled: listening on %s (slots=%d)\n", resolved, m.Config().Slots)

	// Serve until a signal arrives, then drain: the HTTP server stops
	// accepting and waits for in-flight requests (streaming sweeps
	// included); the manager waits for async jobs, cancelling whatever
	// outlives the drain budget.
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Printf("uled: %v — draining (budget %v)\n", sig, *drain)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	shutdownErr := srv.Shutdown(ctx)
	if err := m.Shutdown(ctx); err != nil && shutdownErr == nil {
		shutdownErr = err
	}
	if shutdownErr != nil && !errors.Is(shutdownErr, context.DeadlineExceeded) {
		return shutdownErr
	}
	if shutdownErr != nil {
		fmt.Println("uled: drain budget exceeded; in-flight jobs cancelled")
	} else {
		fmt.Println("uled: drained cleanly")
	}
	return nil
}
