// Command regimapd serves the mapping flow over HTTP: POST a kernel (by
// name or as inline loopir source), an array configuration, and optionally a
// fault set, and get back a validated mapping as JSON. The daemon fronts the
// engine registry with bounded-queue admission control, a content-addressed
// result cache that collapses duplicate in-flight queries, and a Prometheus
// /metrics endpoint; SIGTERM drains gracefully.
//
// Alongside the synchronous path, POST /v1/jobs submits asynchronous jobs:
// with -wal set, every acknowledged job is fsynced into a write-ahead log and
// survives kill -9 — the next start replays the log and finishes the work.
// The async path carries its own hardening: retries with backoff on transient
// failures, a circuit breaker per engine that reroutes down the
// REGIMap→EMS→DRESC ladder, and load-adaptive degradation past a queue
// watermark.
//
// Usage:
//
//	regimapd                                    # serve on :8090
//	regimapd -addr 127.0.0.1:9999 -workers 4 -queue 32
//	regimapd -cache 4096 -default-deadline 10s -max-deadline 1m
//	regimapd -wal /var/lib/regimapd/wal -job-workers 4  # durable async jobs
//	regimapd -trace trace.jsonl                 # per-request spans + engine passes
//
//	curl -s localhost:8090/v1/mappers
//	curl -s -X POST localhost:8090/v1/map -d '{"kernel":"fir8"}'
//	curl -s -X POST localhost:8090/v1/map \
//	    -d '{"source":"acc = acc + x[i]*h[i]","name":"mac","mapper":"exact"}'
//	curl -s -X POST localhost:8090/v1/jobs \
//	    -d '{"kernel":"fir8","idempotency_key":"fir8-run-1"}'
//	curl -s localhost:8090/v1/jobs/j-00000001
//	curl -s localhost:8090/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"regimap/internal/obs"
	"regimap/internal/server"
	"regimap/internal/version"
)

func main() {
	var (
		addr        = flag.String("addr", ":8090", "listen address")
		workers     = flag.Int("workers", 0, "max concurrent mapping computations (0: GOMAXPROCS)")
		cliqueWork  = flag.Int("clique-workers", 0, "goroutines racing the placement passes inside each regimap run (<=1: inline; results are byte-identical at any value)")
		drescRetry  = flag.Int("dresc-restarts", 0, "seed-derived annealing chains raced per II inside each dresc run (<=1: one chain; changes served placements, so part of the cache identity)")
		drescWork   = flag.Int("dresc-workers", 0, "goroutines racing the dresc restart chains (0: GOMAXPROCS; results are byte-identical at any value)")
		queue       = flag.Int("queue", 64, "max computations waiting for a worker; beyond this, requests are shed with 429")
		cacheSize   = flag.Int("cache", 1024, "result-cache capacity in entries")
		defDeadline = flag.Duration("default-deadline", 30*time.Second, "mapping deadline for requests that name none")
		maxDeadline = flag.Duration("max-deadline", 2*time.Minute, "hard cap on any request's mapping deadline")
		drainWait   = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests")
		maxBody     = flag.Int64("max-body", 1<<20, "max request body size in bytes; larger bodies answer 413")
		walDir      = flag.String("wal", "", "directory for the async-job write-ahead log (empty: jobs are not durable)")
		jobWorkers  = flag.Int("job-workers", 2, "max concurrently executing async jobs (a pool separate from -workers)")
		jobQueue    = flag.Int("job-queue", 256, "max queued async jobs; submits beyond this answer 429")
		degradeAt   = flag.Int("degrade-watermark", 0, "queued-job count past which new jobs run on -degrade-to and are marked degraded (0: half of -job-queue; negative: disabled)")
		degradeTo   = flag.String("degrade-to", "ems", "engine that watermark-degraded jobs run on")
		jobAttempts = flag.Int("job-attempts", 3, "max execution attempts per job on transient failures")
		brFailures  = flag.Int("breaker-failures", 5, "consecutive failures that trip an engine's circuit breaker")
		brCooldown  = flag.Duration("breaker-cooldown", 5*time.Second, "how long a tripped breaker waits before its half-open probe")
		brLatency   = flag.Duration("breaker-latency", 0, "when positive, consecutive engine calls slower than this also trip the breaker")
		tracePath   = flag.String("trace", "", "write observability events (request spans, engine passes, counters) as JSON lines to this file")
		showVersion = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String())
		return
	}

	var traceSink obs.Sink
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		exitOn(err)
		sink := obs.NewJSONLSink(f)
		defer func() { exitOn(sink.Close()) }()
		traceSink = sink
	}

	srv, err := server.New(server.Config{
		Workers:          *workers,
		CliqueWorkers:    *cliqueWork,
		DRESCRestarts:    *drescRetry,
		DRESCWorkers:     *drescWork,
		Queue:            *queue,
		CacheEntries:     *cacheSize,
		DefaultDeadline:  *defDeadline,
		MaxDeadline:      *maxDeadline,
		MaxBodyBytes:     *maxBody,
		WALDir:           *walDir,
		JobWorkers:       *jobWorkers,
		JobQueue:         *jobQueue,
		DegradeWatermark: *degradeAt,
		DegradeTo:        *degradeTo,
		JobAttempts:      *jobAttempts,
		BreakerFailures:  *brFailures,
		BreakerCooldown:  *brCooldown,
		BreakerLatency:   *brLatency,
		TraceSink:        traceSink,
		Version:          version.String(),
	})
	exitOn(err)
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Graceful shutdown: on SIGTERM/SIGINT flip readiness (load balancers
	// stop routing, new mapping requests get 503) and let whatever is
	// already mapping finish before the listener closes.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, syscall.SIGINT)
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "regimapd: serving on %s (%s)\n", *addr, version.String())

	select {
	case sig := <-stop:
		fmt.Fprintf(os.Stderr, "regimapd: %s received, draining\n", sig)
		srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		// Finish acknowledged jobs before closing the listener: queued jobs
		// run to terminal states (pollable until the very end), then
		// in-flight HTTP requests complete. Jobs left unfinished when the
		// budget expires stay in the WAL for the next start to recover.
		if err := srv.FinishJobs(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "regimapd: job drain incomplete: %v\n", err)
		}
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "regimapd: drain incomplete: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "regimapd: drained")
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			exitOn(err)
		}
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "regimapd:", err)
		os.Exit(1)
	}
}
