package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"syscall"
	"testing"
	"time"

	"fpmix/internal/faultinject"
	"fpmix/internal/fleet"
	"fpmix/internal/jobs"
	"fpmix/internal/remote"
)

// The remote-worker chaos suite: fpmixd with REAL out-of-process
// workers (this test binary re-executed in worker mode), seeded
// network chaos on the wire, kill -9 mid-run, daemon restart with
// surviving workers — and the same byte-identity pin as everywhere
// else: the composed final must equal serial search.Run's exactly.

// TestMain re-executes the test binary as a worker process when the
// helper env var is set (the standard helper-process pattern), so the
// fleet tests exercise genuine process isolation and genuine SIGKILL.
func TestMain(m *testing.M) {
	if os.Getenv("FPMIX_REMOTE_WORKER") == "1" {
		workerHelperMain()
		return
	}
	os.Exit(m.Run())
}

func workerHelperMain() {
	var inj *faultinject.NetInjector
	if s := os.Getenv("FPMIX_WORKER_CHAOSNET"); s != "" && s != "0" {
		seed, _ := strconv.ParseInt(s, 10, 64)
		// Short injected delays keep chaos runs quick; the fault mix is
		// the default (~24% of RPCs).
		inj = faultinject.NewNet(seed, faultinject.NetRates{}, 20*time.Millisecond)
	}
	sab, _ := strconv.Atoi(os.Getenv("FPMIX_WORKER_SABOTAGE"))
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	remote.Run(ctx, remote.WorkerOptions{
		Server:   os.Getenv("FPMIX_WORKER_SERVER"),
		Name:     os.Getenv("FPMIX_WORKER_NAME"),
		Poll:     200 * time.Millisecond,
		Net:      inj,
		Sabotage: sab,
		Logf:     log.New(os.Stderr, "worker["+os.Getenv("FPMIX_WORKER_NAME")+"]: ", 0).Printf,
	})
}

// remoteFleet tunes failure detection for subprocess fleets: quick
// heartbeats, an expiry short enough that a kill -9'd worker's lease
// breaks within a few seconds, and a reassignment budget generous
// enough that an occasional false expiry under full CPU load cannot
// fail a unit.
var remoteFleet = fleet.Options{
	Heartbeat:   50 * time.Millisecond,
	Expiry:      4 * time.Second,
	MaxReassign: 10,
}

// serveOn starts the server's HTTP API on a fresh loopback port and
// returns its address.
func serveOn(t *testing.T, srv *Server) (addr string, shutdown func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	return ln.Addr().String(), func() { hs.Close() }
}

// spawnWorker starts one out-of-process worker against the daemon at
// addr. The returned process is SIGKILLed at cleanup if still alive.
func spawnWorker(t *testing.T, addr, name string, chaosSeed int64, sabotage int) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"FPMIX_REMOTE_WORKER=1",
		"FPMIX_WORKER_SERVER=http://"+addr,
		"FPMIX_WORKER_NAME="+name,
		fmt.Sprintf("FPMIX_WORKER_CHAOSNET=%d", chaosSeed),
		fmt.Sprintf("FPMIX_WORKER_SABOTAGE=%d", sabotage),
	)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return cmd
}

// waitRemoteWorkers blocks until n remote workers (any but the
// daemon's own "local" ones) are registered and not dead in the pool.
func waitRemoteWorkers(t *testing.T, srv *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		live := 0
		for _, w := range srv.Pool().Workers() {
			if w.Name != "local" && w.State != fleet.WorkerDead {
				live++
			}
		}
		if live >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("never saw %d live remote workers", n)
}

// remoteDone sums accepted deliveries over remote workers.
func remoteDone(srv *Server) int {
	done := 0
	for _, w := range srv.Pool().Workers() {
		if w.Name != "local" {
			done += w.Done
		}
	}
	return done
}

// TestRemoteFinalByteIdentical is the remote identity pin: every
// searchable kernel at class W runs on an fpmixd with zero in-process
// workers and ≥2 real worker subprocesses under seeded network chaos
// (dropped responses → duplicate deliveries, duplicated RPCs, delays,
// resets), one worker is kill -9'd mid-run, and the composed final
// must still be byte-identical to serial search.Run. A separate
// subtest restarts the daemon mid-job with the worker processes
// surviving: they re-register through 410 Gone and the resumed job
// composes the same bytes.
func TestRemoteFinalByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess fleet suite is not -short")
	}
	t.Run("chaos", func(t *testing.T) {
		for i, name := range testKernels() {
			name, i := name, i
			t.Run(name, func(t *testing.T) {
				srv, err := New(Options{Dir: t.TempDir(), Workers: -1, DrainTimeout: time.Second, Fleet: remoteFleet})
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				addr, shutdown := serveOn(t, srv)
				defer shutdown()
				spawnWorker(t, addr, "chaos-a", int64(1000+i), 0)
				spawnWorker(t, addr, "chaos-b", int64(2000+i), 0)
				victim := spawnWorker(t, addr, "victim", 0, 0)
				waitRemoteWorkers(t, srv, 3)
				j, err := srv.Submit(jobs.Spec{Kernel: name})
				if err != nil {
					t.Fatal(err)
				}
				// kill -9 the victim the moment it holds a lease — no
				// goodbye, no interrupt report; only lease expiry on the
				// daemon's clock can recover the unit. Small kernels may
				// finish before the victim ever claims; then there is
				// nothing to kill and the chaos workers carried the run.
				killed := false
				deadline := time.Now().Add(time.Minute)
				for !killed && time.Now().Before(deadline) {
					if jj, _ := srv.Store().Get(j.ID); jj.State.Terminal() {
						break
					}
					for _, w := range srv.Pool().Workers() {
						if w.Name == "victim" && w.State == fleet.WorkerBusy {
							if err := victim.Process.Kill(); err != nil {
								t.Fatal(err)
							}
							victim.Wait()
							killed = true
							break
						}
					}
					time.Sleep(time.Millisecond)
				}
				waitState(t, srv, j.ID, jobs.StateDone)
				got := stripNotes(resultOf(t, srv, j.ID))
				want := stripNotes(serialFinal(t, name))
				if got != want {
					t.Errorf("remote final diverged from serial for %s.W (victim killed: %v)", name, killed)
				}
				if remoteDone(srv)+srv.Pool().Fallbacks() == 0 {
					t.Error("no unit was evaluated remotely or via fallback — the fleet never worked")
				}
			})
		}
	})

	t.Run("daemon-restart", func(t *testing.T) {
		dir := t.TempDir()
		srv1, err := New(Options{Dir: dir, Workers: -1, Fleet: remoteFleet})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		hs1 := &http.Server{Handler: srv1.Handler()}
		go hs1.Serve(ln)
		spawnWorker(t, addr, "survivor-a", 31, 0)
		spawnWorker(t, addr, "survivor-b", 32, 0)
		waitRemoteWorkers(t, srv1, 2)
		j, err := srv1.Submit(jobs.Spec{Kernel: "mg"})
		if err != nil {
			t.Fatal(err)
		}
		// Let some verdicts journal, then die abruptly: no drain, no
		// state transition — the workers outlive the daemon.
		deadline := time.Now().Add(time.Minute)
		for time.Now().Before(deadline) {
			srv1.mu.Lock()
			st := srv1.streams[j.ID]
			srv1.mu.Unlock()
			if st != nil && st.events() >= 5 {
				break
			}
			time.Sleep(time.Millisecond)
		}
		srv1.crash()
		hs1.Close()

		// Same address, fresh incarnation: the job relaunches from the
		// store; the surviving workers' identities come back 410 Gone and
		// they re-register.
		var ln2 net.Listener
		for i := 0; i < 100; i++ {
			if ln2, err = net.Listen("tcp", addr); err == nil {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		if err != nil {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		srv2, err := New(Options{Dir: dir, Workers: -1, Fleet: remoteFleet})
		if err != nil {
			t.Fatal(err)
		}
		defer srv2.Close()
		hs2 := &http.Server{Handler: srv2.Handler()}
		go hs2.Serve(ln2)
		defer hs2.Close()
		waitState(t, srv2, j.ID, jobs.StateDone)
		sum, err := srv2.Summary(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		if sum.Resumed == 0 && sum.CacheHits == 0 {
			t.Error("restart replayed nothing: neither journal verdicts nor cache hits")
		}
		got := stripNotes(resultOf(t, srv2, j.ID))
		want := stripNotes(serialFinal(t, "mg"))
		if got != want {
			t.Error("final diverged from serial across a daemon restart with surviving workers")
		}
		// The surviving processes must find their way back into the new
		// registry (410 → re-register), even though the job may already
		// have finished on the in-process fallback.
		waitRemoteWorkers(t, srv2, 2)
	})
}

// TestRemoteBatchedChaosIdempotent: a worker evaluating in parallel
// with batched delivery under heavy drop/dup chaos — every dropped
// report response forces a whole-batch duplicate redelivery, every dup
// delivers a batch twice — must still land each verdict exactly once:
// the daemon absorbs the duplicates as per-unit discards and the final
// stays byte-identical to serial. Runs the worker runtime in-process so
// -race covers the pipelined claim/evaluate/report interleavings.
func TestRemoteBatchedChaosIdempotent(t *testing.T) {
	fl := remoteFleet
	fl.Expiry = 30 * time.Second // in-process worker under -race: be lenient
	srv, err := New(Options{Dir: t.TempDir(), Workers: -1, Fleet: fl})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		remote.Run(wctx, remote.WorkerOptions{
			Server: ts.URL, Name: "stormy", Poll: 100 * time.Millisecond,
			Parallel: 2, Batch: 4,
			// No resets or delays: every fault is a duplicate-delivery
			// fault, the pure idempotency workload.
			Net: faultinject.NewNet(97, faultinject.NetRates{Drop: 0.35, Dup: 0.35}, 0),
		})
	}()
	waitRemoteWorkers(t, srv, 1)
	j, err := srv.Submit(jobs.Spec{Kernel: "ep"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, srv, j.ID, jobs.StateDone)
	got := stripNotes(resultOf(t, srv, j.ID))
	want := stripNotes(serialFinal(t, "ep"))
	if got != want {
		t.Error("batched chaos final diverged from serial")
	}
	done, discarded := 0, 0
	for _, w := range srv.Pool().Workers() {
		done += w.Done
		discarded += w.Discarded
	}
	if done == 0 {
		t.Error("no unit delivered remotely")
	}
	if discarded == 0 {
		t.Error("chaos produced no duplicate deliveries — idempotency never exercised")
	}
	wcancel()
	select {
	case <-workerDone:
	case <-time.After(30 * time.Second):
		t.Fatal("worker runtime did not exit on cancel")
	}
}

// TestRemoteQuarantineDegrades: a worker whose environment is broken
// (every evaluation errors) is quarantined after QuarantineAfter
// consecutive strikes — visible in the registry, still heartbeating —
// and the daemon degrades to in-process fallback, completing the job
// with the identical final. Runs the worker runtime in-process (same
// address space) so -race covers the client/server interleavings.
func TestRemoteQuarantineDegrades(t *testing.T) {
	fl := remoteFleet
	fl.Expiry = 30 * time.Second // in-process worker under -race: be lenient
	fl.QuarantineAfter = 2
	srv, err := New(Options{Dir: t.TempDir(), Workers: -1, Fleet: fl})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		remote.Run(wctx, remote.WorkerOptions{
			Server: ts.URL, Name: "saboteur", Poll: 100 * time.Millisecond,
			Sabotage: 1 << 30, // every unit fails
		})
	}()
	waitRemoteWorkers(t, srv, 1)
	j, err := srv.Submit(jobs.Spec{Kernel: "ep"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, srv, j.ID, jobs.StateDone)
	got := stripNotes(resultOf(t, srv, j.ID))
	want := stripNotes(serialFinal(t, "ep"))
	if got != want {
		t.Error("final diverged from serial under quarantine degradation")
	}
	quarantined := false
	for _, w := range srv.Pool().Workers() {
		if w.Name == "saboteur" && w.State == fleet.WorkerQuarantined {
			quarantined = true
		}
	}
	if !quarantined {
		t.Error("saboteur worker never quarantined")
	}
	if srv.Pool().Fallbacks() == 0 {
		t.Error("no in-process fallback despite a fully quarantined fleet")
	}
	wcancel()
	select {
	case <-workerDone:
	case <-time.After(30 * time.Second):
		t.Fatal("worker runtime did not exit on cancel")
	}
}

// TestRemoteOnlyFallsBackInProcess: a remote-only daemon with zero
// healthy remote workers must not stall — every unit degrades to
// in-process evaluation and the final stays byte-identical.
func TestRemoteOnlyFallsBackInProcess(t *testing.T) {
	srv, err := New(Options{Dir: t.TempDir(), Workers: -1, Fleet: fastFleet})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	j, err := srv.Submit(jobs.Spec{Kernel: "ep"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, srv, j.ID, jobs.StateDone)
	if srv.Pool().Fallbacks() == 0 {
		t.Error("remote-only daemon with no workers reported no fallbacks")
	}
	got := stripNotes(resultOf(t, srv, j.ID))
	want := stripNotes(serialFinal(t, "ep"))
	if got != want {
		t.Error("in-process fallback composed a different final")
	}
}

// TestEventStreamResume: the events endpoint numbers events and
// ?from=N resumes the replay exactly after the last-seen sequence
// number — the server half of fpmixctl watch's reconnect.
func TestEventStreamResume(t *testing.T) {
	srv, err := New(Options{Dir: t.TempDir(), Workers: 4, Fleet: fastFleet})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	j, err := srv.Submit(jobs.Spec{Kernel: "ep"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, srv, j.ID, jobs.StateDone)

	full := fetchEvents(t, ts.URL, j.ID, 0)
	if len(full) < 3 {
		t.Fatalf("only %d events; need a few to split the stream", len(full))
	}
	for i, e := range full {
		if e.Seq != i+1 {
			t.Fatalf("event %d has seq %d, want %d", i, e.Seq, i+1)
		}
	}
	mid := full[len(full)/2].Seq
	tail := fetchEvents(t, ts.URL, j.ID, mid+1)
	if len(tail) != len(full)-mid {
		t.Fatalf("resume from %d returned %d events, want %d", mid+1, len(tail), len(full)-mid)
	}
	for i, e := range tail {
		if e.Seq != mid+1+i {
			t.Fatalf("resumed event %d has seq %d, want %d", i, e.Seq, mid+1+i)
		}
	}
	// Far past the end: nothing to replay, just the end marker (no
	// events with a seq).
	if late := fetchEvents(t, ts.URL, j.ID, full[len(full)-1].Seq+100); len(late) != 0 {
		t.Fatalf("resume past the end replayed %d events", len(late))
	}
}

// fetchEvents drains one events stream (terminated by the "end"
// marker) and returns the seq-carrying events.
func fetchEvents(t *testing.T, base, id string, from int) []Event {
	t.Helper()
	url := fmt.Sprintf("%s/api/v1/jobs/%s/events", base, id)
	if from > 0 {
		url += fmt.Sprintf("?from=%d", from)
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: %s", resp.Status)
	}
	var out []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		if e.Type == "end" {
			return out
		}
		out = append(out, e)
	}
	t.Fatal("stream ended without end marker")
	return nil
}
