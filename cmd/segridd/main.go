// Command segridd is the long-running attack-analytics service: attack
// verification, countermeasure synthesis and certificate re-checking as
// HTTP endpoints over the paper's analysis stack, built for sustained
// operation — warm encoder pooling, a bounded scheduler queue with load
// shedding, per-request deadlines and crash-safe certificate publication
// (see internal/service).
//
// Usage:
//
//	segridd [flags]
//
// Flags:
//
//	-addr host:port   listen address (default 127.0.0.1:8547)
//	-concurrency n    work units solving at once (default 4). All requests'
//	                  units (verify checks and LP screens, sweep groups,
//	                  syntheses, certificate checks) share this bound under
//	                  deficit-round-robin fairness. Queued units run on
//	                  that many scheduler workers; a request's only unit
//	                  runs on its own goroutine when a slot is free and
//	                  nothing is queued
//	-queue n          requests the scheduler holds waiting for their first
//	                  work unit to start; one more sheds 429 (default 16)
//	-queue-wait d     max wait for a request's first work unit to start; past
//	                  it the scheduler drops the request unrun, 503 (default 2s)
//	-timeout d        default per-request deadline (default 30s)
//	-max-timeout d    hard cap on client-requested deadlines (default 2m)
//	-max-conflicts n  per-check CDCL conflict budget (0 = unlimited)
//	-max-pivots n     per-check simplex pivot budget (0 = unlimited)
//	-proof-dir dir    enable UNSAT certificates: verify/synthesize requests
//	                  may ask for per-request certificate files under dir,
//	                  and POST /v1/proofcheck re-checks them independently
//	-pool-live n      warm-encoder pool size cap (default 64), the pool's
//	                  memory bound and its only one; a cold build at the cap
//	                  evicts the least-recently-used idle encoder of any
//	                  key. A key keeps at most as many idle encoders as it
//	                  had leases at once, and -concurrency caps those
//	-sweep-max-items n   per-request item cap for POST /v1/sweep (default 256)
//	-cube-workers n   default cube-and-conquer width for bus-granular
//	                  synthesis: > 1 fans the search across that many
//	                  workers, 1 runs the sequential loop, -1 picks the host
//	                  default (GOMAXPROCS, clamped); requests may override
//	                  per call. Measurement-granular synthesis always runs
//	                  sequentially
//	-max-workers n    hard per-request cap on the cube width (default 8)
//	-screen           enable the LP-relaxation screening tier: each verify
//	                  and sweep item is screened under the screen's default
//	                  pivot budget, every time it is asked; one the screen
//	                  decides definitively is answered without an encoder or
//	                  SMT solve ("screened": true in the response), an
//	                  inconclusive one falls through to the encoder path;
//	                  requests override per call with their "screen" field
//
// Endpoints:
//
//	POST /v1/verify      {"attack": <scenariofile attack spec>, ...}
//	POST /v1/sweep       {"attack": <base spec>, "items": [<per-item deltas>]}
//	POST /v1/synthesize  {"synthesis": <scenariofile synthesis spec>, ...}
//	POST /v1/proofcheck  {"path": "<certificate relative to -proof-dir>"}
//	GET  /healthz        liveness
//	GET  /metrics        request/pool counters as JSON
//
// Answer contract: every verify answer is "feasible", "infeasible" or
// "inconclusive" (with a machine-readable reason); overload is refused with
// 429/503 plus Retry-After. The server never converts a failure into a
// verdict.
//
// SIGINT/SIGTERM trigger a graceful shutdown: in-flight requests finish (up
// to their deadlines), then the warm pool is drained.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"segrid/internal/service"
	"segrid/internal/smt"
)

func main() {
	fs := flag.NewFlagSet("segridd", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8547", "listen address")
	concurrency := fs.Int("concurrency", 4, "work units solving at once: scheduler workers plus requests running their one unit inline")
	queue := fs.Int("queue", 16, "requests waiting for their first work unit; one more sheds 429")
	queueWait := fs.Duration("queue-wait", 2*time.Second, "max wait for a request's first work unit to start")
	timeout := fs.Duration("timeout", 30*time.Second, "default per-request deadline")
	maxTimeout := fs.Duration("max-timeout", 2*time.Minute, "cap on client-requested deadlines")
	maxConflicts := fs.Int64("max-conflicts", 0, "per-check CDCL conflict budget (0 = unlimited)")
	maxPivots := fs.Int64("max-pivots", 0, "per-check simplex pivot budget (0 = unlimited)")
	proofDir := fs.String("proof-dir", "", "enable per-request UNSAT certificates under this directory")
	poolLive := fs.Int("pool-live", 0, "warm-encoder pool size cap (0 = default)")
	sweepMaxItems := fs.Int("sweep-max-items", 0, "per-request item cap for POST /v1/sweep (0 = default 256)")
	cubeWorkers := fs.Int("cube-workers", 0, "default cube-and-conquer workers for synthesis (1 = sequential, -1 = host default)")
	maxWorkers := fs.Int("max-workers", 0, "per-request cap on the cube worker count (0 = default 8)")
	screenTier := fs.Bool("screen", false, "enable the LP-relaxation screening tier ahead of the SMT pipeline")
	_ = fs.Parse(os.Args[1:])

	if *proofDir != "" {
		if st, err := os.Stat(*proofDir); err != nil || !st.IsDir() {
			log.Fatalf("segridd: -proof-dir %s is not a directory", *proofDir)
		}
	}
	svc, err := service.New(service.Config{
		MaxConcurrent:        *concurrency,
		MaxQueue:             *queue,
		QueueWait:            *queueWait,
		DefaultTimeout:       *timeout,
		MaxTimeout:           *maxTimeout,
		Budget:               smt.Budget{MaxConflicts: *maxConflicts, MaxPivots: *maxPivots},
		ProofDir:             *proofDir,
		PoolMaxLive:          *poolLive,
		MaxSweepItems:        *sweepMaxItems,
		CubeWorkers:          *cubeWorkers,
		MaxWorkersPerRequest: *maxWorkers,
		Screen:               *screenTier,
	})
	if err != nil {
		log.Fatalf("segridd: %v", err)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("segridd: listening on %s", *addr)

	select {
	case err := <-errc:
		log.Fatalf("segridd: serve: %v", err)
	case <-ctx.Done():
	}
	log.Printf("segridd: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *maxTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "segridd: shutdown: %v\n", err)
	}
	svc.Close()
	log.Printf("segridd: stopped")
}
