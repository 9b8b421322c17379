// Command fpmixworker is an out-of-process evaluation worker for the
// fpmixd search service. It connects to a daemon over HTTP, claims
// evaluation units, runs them in its own address space with the exact
// engine stack and worker runtime the daemon's local workers use, and
// streams the verdicts back — so a worker crash, partition or kill -9
// can never take the daemon down, and the composed final configuration
// stays byte-identical to a serial fpsearch run no matter how the
// fleet fails.
//
//	fpmixworker -server http://127.0.0.1:8606 -name rack3
//
// The worker evaluates -parallel units concurrently over each job's
// shared engine stack and pipelines delivery: claims keep -batch
// unevaluated units in hand while the current ones evaluate, room frees
// as each evaluation ends, and each ready batch of verdicts ships at
// once without waiting for the previous report, so RPC round-trips
// overlap with evaluation instead of serializing with it. It re-registers automatically when the daemon
// restarts (its identity comes back 410 Gone), drains when the daemon
// quarantines it, and on SIGINT/SIGTERM reports its in-flight units as
// interrupted so the daemon requeues them immediately.
//
// Chaos flags (testing):
//
//	-chaosnet SEED   arm deterministic network-fault injection on
//	                 every RPC (dropped responses, duplicated
//	                 deliveries, delayed sends, connection resets)
//	-sabotage N      report the first N claimed units as worker-side
//	                 failures, driving the daemon's quarantine path
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fpmix/internal/faultinject"
	"fpmix/internal/remote"
)

func main() {
	server := flag.String("server", defaultServer(), "fpmixd base URL")
	name := flag.String("name", hostnameDefault(), "self-reported worker name (fpmixctl workers)")
	poll := flag.Duration("poll", 2*time.Second, "claim long-poll window")
	parallel := flag.Int("parallel", 0, "concurrent evaluations (0 = number of CPUs)")
	batch := flag.Int("batch", 0, "leases kept in hand not yet evaluated, and verdicts per report RPC (0 = max(4, 2*parallel))")
	chaosnet := flag.Int64("chaosnet", 0, "arm seeded network-fault injection (0 = off)")
	sabotage := flag.Int("sabotage", 0, "report the first N units as failures (chaos)")
	flag.Parse()

	var net *faultinject.NetInjector
	if *chaosnet != 0 {
		net = faultinject.NewNet(*chaosnet, faultinject.NetRates{}, 0)
	}
	logger := log.New(os.Stderr, "fpmixworker: ", log.LstdFlags)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := remote.Run(ctx, remote.WorkerOptions{
		Server:   *server,
		Name:     *name,
		Poll:     *poll,
		Parallel: *parallel,
		Batch:    *batch,
		Net:      net,
		Sabotage: *sabotage,
		Logf:     logger.Printf,
	})
	if err != nil {
		logger.Fatal(err)
	}
	logger.Println("drained, exiting")
}

func defaultServer() string {
	if s := os.Getenv("FPMIXD_SERVER"); s != "" {
		return s
	}
	return "http://127.0.0.1:8606"
}

func hostnameDefault() string {
	h, err := os.Hostname()
	if err != nil {
		return "worker"
	}
	return fmt.Sprintf("%s.%d", h, os.Getpid())
}
