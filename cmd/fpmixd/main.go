// Command fpmixd is the long-lived mixed-precision search service: an
// HTTP/JSON server over a durable job store, a shared cross-job verdict
// cache and a fleet of evaluation workers: its own local ones plus any
// fpmixworker processes that join.
//
// Submitted jobs (a registered kernel, or an uploaded program image
// plus a verifier spec) run the same breadth-first search fpsearch
// runs, with the coordinator in-process and every evaluation unit
// sharded across the worker fleet under lease/heartbeat scheduling —
// the composed final configuration is byte-identical to a serial run.
// Jobs are durable: every settled verdict lands in a per-job
// fingerprint-validated journal, so a killed or restarted server
// resumes its running jobs instead of recomputing them, and evaluated
// verdicts are shared between jobs over the same program image through
// the verdict cache.
//
//	fpmixd -addr :8080 -dir /var/lib/fpmixd -workers 8
//
// The API (see internal/service for the handler):
//
//	POST /api/v1/jobs              submit (body: job spec JSON)
//	GET  /api/v1/jobs              list jobs
//	GET  /api/v1/jobs/{id}         status (+ summary when done)
//	POST /api/v1/jobs/{id}/cancel  cancel
//	GET  /api/v1/jobs/{id}/events  progress stream (ndjson)
//	GET  /api/v1/jobs/{id}/result  final configuration download
//	GET  /api/v1/workers           worker registry
//	POST /api/v1/workers/{id}/kill chaos: report a worker dead
//	GET  /api/v1/healthz           liveness
//	POST /api/v1/fleet/...         remote-worker protocol (fpmixworker)
//
// fpmixctl is the matching client; fpmixworker joins the evaluation
// fleet from other processes or machines (run fpmixd -workers 0 for a
// remote-only daemon). Local and remote workers run the same worker
// runtime and protocol; the local ones just reach the pool in memory.
// On SIGINT/SIGTERM the daemon stops granting leases and waits up to
// -draintimeout for held ones to deliver so their verdicts journal,
// then requeues the running jobs and exits; the next incarnation
// resumes.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fpmix/internal/service"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8606", "listen address")
	dir := flag.String("dir", "fpmixd.state", "job store directory (journals, results, verdict cache)")
	workers := flag.Int("workers", 4, "local evaluation workers (0 = remote-only: all evaluation on fpmixworker processes)")
	drain := flag.Duration("draintimeout", 5*time.Second, "graceful-shutdown wait for leased units to deliver before requeueing the jobs")
	flag.Parse()

	w := *workers
	if w == 0 {
		w = -1 // service.Options: negative = no local workers
	}
	srv, err := service.New(service.Options{Dir: *dir, Workers: w, DrainTimeout: *drain})
	if err != nil {
		fatal(err)
	}
	if rec := srv.Store().Recovered(); len(rec) > 0 {
		fmt.Fprintf(os.Stderr, "fpmixd: recovered %d interrupted job(s): %v\n", len(rec), rec)
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "fpmixd: serving on %s (store %s, %d workers)\n", *addr, *dir, *workers)

	// SIGINT/SIGTERM shut down gracefully: running jobs re-queue with
	// their journals intact, so the next incarnation resumes them.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "fpmixd: shutting down, re-queueing running jobs")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	hs.Shutdown(shutdownCtx)
	if err := srv.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fpmixd:", err)
	os.Exit(1)
}
