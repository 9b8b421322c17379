package service

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"regexp"
	"sync"
	"testing"
	"time"

	"fpmix/internal/config"
	"fpmix/internal/fleet"
	"fpmix/internal/jobs"
	"fpmix/internal/kernels"
	"fpmix/internal/remote"
	"fpmix/internal/search"
	"fpmix/internal/shadow"
)

// fastFleet keeps heartbeats quick but the expiry generous: service
// tests saturate every core with evaluation runs, so a tight expiry
// would let the monitor declare starved-but-healthy workers dead. The
// expiry path itself is pinned in internal/fleet with idle workers.
var fastFleet = fleet.Options{Heartbeat: 50 * time.Millisecond, Expiry: 30 * time.Second}

var notesRE = regexp.MustCompile(`(?m)[ \t]*;[^\n]*`)

// stripNotes drops exchange-format comment annotations, leaving only
// the precision flags the byte-identity pin compares.
func stripNotes(s string) string { return notesRE.ReplaceAllString(s, "") }

// serialFinal runs the serial in-process search with the exact options
// a service job uses and returns the exchange-format final.
var serialMu sync.Mutex
var serialCache = map[string]string{}

func serialFinal(t *testing.T, name string) string {
	t.Helper()
	serialMu.Lock()
	defer serialMu.Unlock()
	if s, ok := serialCache[name]; ok {
		return s
	}
	b, err := kernels.Get(name, kernels.ClassW)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := shadow.Collect(name+".W", b.Module, b.MaxSteps)
	if err != nil {
		t.Fatal(err)
	}
	tgt := search.Target{Module: b.Module, Verify: b.Verify, MaxSteps: b.MaxSteps, Base: b.Base}
	res, err := search.Run(tgt, search.Options{
		Workers: 4, Granularity: config.KindInsn,
		BinarySplit: true, Prioritize: true, Engine: search.EngineFork,
		Shadow: sh, SensThreshold: b.SensTol,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Final.Write(&buf); err != nil {
		t.Fatal(err)
	}
	serialCache[name] = buf.String()
	return serialCache[name]
}

func waitState(t *testing.T, srv *Server, id string, want jobs.State) jobs.Job {
	t.Helper()
	deadline := time.Now().Add(3 * time.Minute)
	for time.Now().Before(deadline) {
		j, ok := srv.Store().Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if j.State == want {
			return j
		}
		if j.State.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, j.State, j.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return jobs.Job{}
}

func resultOf(t *testing.T, srv *Server, id string) string {
	t.Helper()
	data, err := os.ReadFile(srv.Store().ResultPath(id))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// testKernels is the identity-pin matrix: every registered kernel at
// class W (the MPI variants carry no verification routine, so they are
// not searchable targets). -short trims to a representative subset.
func testKernels() []string {
	if testing.Short() {
		return []string{"ep", "mg", "cg"}
	}
	return kernels.Names()
}

// TestServiceFinalByteIdentical is the sharded identity pin: a service
// job over ≥4 workers composes a final configuration byte-identical
// (notes stripped) to serial search.Run — in the plain case for every
// kernel, and with a worker killed mid-run and the server crashed and
// restarted mid-run (resuming from the job store) on representative
// kernels.
func TestServiceFinalByteIdentical(t *testing.T) {
	t.Run("plain", func(t *testing.T) {
		for _, name := range testKernels() {
			name := name
			t.Run(name, func(t *testing.T) {
				srv, err := New(Options{Dir: t.TempDir(), Workers: 4, Fleet: fastFleet})
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				j, err := srv.Submit(jobs.Spec{Kernel: name})
				if err != nil {
					t.Fatal(err)
				}
				waitState(t, srv, j.ID, jobs.StateDone)
				got := stripNotes(resultOf(t, srv, j.ID))
				want := stripNotes(serialFinal(t, name))
				if got != want {
					t.Errorf("sharded final diverged from serial for %s.W", name)
				}
				sum, err := srv.Summary(j.ID)
				if err != nil {
					t.Fatal(err)
				}
				if sum.Tested == 0 {
					t.Error("summary reports no evaluations — units never reached the fleet")
				}
			})
		}
	})

	t.Run("worker-killed", func(t *testing.T) {
		for _, name := range []string{"ep", "mg"} {
			name := name
			t.Run(name, func(t *testing.T) {
				srv, err := New(Options{Dir: t.TempDir(), Workers: 4, Fleet: fastFleet})
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				j, err := srv.Submit(jobs.Spec{Kernel: name})
				if err != nil {
					t.Fatal(err)
				}
				// Kill a busy worker mid-run: its lease must break, the shard
				// reassign, and the final must not change.
				victim := killBusy(t, srv, j.ID, func(fleet.WorkerInfo) bool { return true })
				if victim == "" {
					t.Fatal("no busy worker to kill before the job finished")
				}
				waitState(t, srv, j.ID, jobs.StateDone)
				// Local workers share the remote re-register path: the victim
				// stays dead and a fresh local identity restores the four.
				waitRejoined(t, srv, victim, 4)
				got := stripNotes(resultOf(t, srv, j.ID))
				want := stripNotes(serialFinal(t, name))
				if got != want {
					t.Errorf("final diverged from serial after a worker kill for %s.W", name)
				}
			})
		}
	})

	t.Run("mixed", func(t *testing.T) {
		for _, name := range []string{"ep", "mg"} {
			name := name
			t.Run(name, func(t *testing.T) {
				// Two local workers and two HTTP workers on one daemon, one
				// of each killed mid-run: both kinds re-register the same
				// way and the final must not change.
				srv, err := New(Options{Dir: t.TempDir(), Workers: 2, Fleet: fastFleet})
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				ts := httptest.NewServer(srv.Handler())
				defer ts.Close()
				wctx, wcancel := context.WithCancel(context.Background())
				var wg sync.WaitGroup
				defer wg.Wait()
				defer wcancel()
				for i := 0; i < 2; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						remote.Run(wctx, remote.WorkerOptions{
							Server: ts.URL, Name: fmt.Sprintf("http%d", i),
							Poll: 100 * time.Millisecond, Parallel: 1,
						})
					}(i)
				}
				waitRemoteWorkers(t, srv, 2)
				j, err := srv.Submit(jobs.Spec{Kernel: name})
				if err != nil {
					t.Fatal(err)
				}
				isLocal := func(w fleet.WorkerInfo) bool { return w.Name == "local" }
				local := killBusy(t, srv, j.ID, isLocal)
				remoteVictim := killBusy(t, srv, j.ID, func(w fleet.WorkerInfo) bool { return !isLocal(w) })
				if local == "" || remoteVictim == "" {
					t.Fatalf("killed local %q and remote %q before the job finished, want one of each", local, remoteVictim)
				}
				waitState(t, srv, j.ID, jobs.StateDone)
				waitRejoined(t, srv, local, 4)
				waitRejoined(t, srv, remoteVictim, 4)
				got := stripNotes(resultOf(t, srv, j.ID))
				want := stripNotes(serialFinal(t, name))
				if got != want {
					t.Errorf("final diverged from serial on a mixed fleet for %s.W", name)
				}
			})
		}
	})

	t.Run("server-restarted", func(t *testing.T) {
		for _, name := range []string{"ep", "mg"} {
			name := name
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				srv1, err := New(Options{Dir: dir, Workers: 4, Fleet: fastFleet})
				if err != nil {
					t.Fatal(err)
				}
				j, err := srv1.Submit(jobs.Spec{Kernel: name})
				if err != nil {
					t.Fatal(err)
				}
				// Let the run settle some verdicts, then die without any state
				// transition — the on-disk record must still say "running".
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
				st2, err := jobs.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				rec, ok := st2.Get(j.ID)
				if !ok {
					t.Fatal("job lost across crash")
				}
				if rec.Recovered != 1 || rec.State != jobs.StateQueued {
					t.Fatalf("crash left state %s recovered %d, want queued/1 after recovery open", rec.State, rec.Recovered)
				}

				// A fresh server over the same dir relaunches the job from the
				// store, resuming its journal.
				srv2, err := New(Options{Dir: dir, Workers: 4, Fleet: fastFleet})
				if err != nil {
					t.Fatal(err)
				}
				defer srv2.Close()
				waitState(t, srv2, j.ID, jobs.StateDone)
				sum, err := srv2.Summary(j.ID)
				if err != nil {
					t.Fatal(err)
				}
				if sum.Resumed == 0 && sum.CacheHits == 0 {
					t.Error("restart replayed nothing: neither journal verdicts nor cache hits")
				}
				got := stripNotes(resultOf(t, srv2, j.ID))
				want := stripNotes(serialFinal(t, name))
				if got != want {
					t.Errorf("final diverged from serial across a server restart for %s.W", name)
				}
			})
		}
	})
}

// killBusy kills the first worker matching the filter that holds a
// lease while the job runs, returning its ID ("" when the job finished
// first).
func killBusy(t *testing.T, srv *Server, jobID string, match func(fleet.WorkerInfo) bool) string {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		if jj, _ := srv.Store().Get(jobID); jj.State.Terminal() {
			return ""
		}
		for _, w := range srv.Pool().Workers() {
			if w.State == fleet.WorkerBusy && match(w) {
				if err := srv.Pool().Kill(w.ID); err != nil {
					t.Fatal(err)
				}
				return w.ID
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
	return ""
}

// waitRejoined waits until the killed worker is dead in the registry,
// a live worker under its name has re-registered with a fresh ID, and
// alive workers are assignable again.
func waitRejoined(t *testing.T, srv *Server, victim string, alive int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var name string
		dead := false
		for _, w := range srv.Pool().Workers() {
			if w.ID == victim {
				name, dead = w.Name, w.State == fleet.WorkerDead
			}
		}
		rejoined := false
		for _, w := range srv.Pool().Workers() {
			if w.ID != victim && w.Name == name && w.State != fleet.WorkerDead {
				rejoined = true
			}
		}
		n := srv.Pool().Alive()
		if dead && rejoined && n == alive {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim %s dead=%v, %s re-registered=%v, Alive()=%d; want dead, re-registered, %d", victim, dead, name, rejoined, n, alive)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServiceCrossJobDedup: a second identical submission is a new job
// (fresh ID, fresh journal) but inherits the first job's verdicts from
// the shared cache — the summary must report cache-served provenance.
func TestServiceCrossJobDedup(t *testing.T) {
	srv, err := New(Options{Dir: t.TempDir(), Workers: 4, Fleet: fastFleet})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	j1, err := srv.Submit(jobs.Spec{Kernel: "ep"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, srv, j1.ID, jobs.StateDone)
	j2, err := srv.Submit(jobs.Spec{Kernel: "ep"})
	if err != nil {
		t.Fatal(err)
	}
	if j2.ID == j1.ID {
		t.Fatal("identical submissions collapsed into one job")
	}
	if j2.Image != j1.Image {
		t.Fatal("identical submissions got different cache scopes")
	}
	waitState(t, srv, j2.ID, jobs.StateDone)
	sum1, err := srv.Summary(j1.ID)
	if err != nil {
		t.Fatal(err)
	}
	sum2, err := srv.Summary(j2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if sum2.CacheHits < 1 {
		t.Errorf("second identical job reports %d cache hits, want ≥1", sum2.CacheHits)
	}
	if sum2.Tested != 0 {
		t.Errorf("second identical job evaluated %d configurations (first: %d), want 0", sum2.Tested, sum1.Tested)
	}
	if sum2.Provenance["memo"]+sum2.Provenance["proved"] < 1 {
		t.Errorf("no cache-served provenance in %v", sum2.Provenance)
	}
	if resultOf(t, srv, j1.ID) != resultOf(t, srv, j2.ID) {
		t.Error("cache-served job wrote a different result file")
	}
}

// workCounts snapshots the package's per-job work counters.
func workCounts() [5]int64 {
	return [5]int64{work.targetBuilds.Load(), work.shadowCollects.Load(), work.profileRuns.Load(),
		work.dataflowRuns.Load(), work.runnerBuilds.Load()}
}

// workSince is the work done since the snapshot before.
func workSince(before [5]int64) [5]int64 {
	after := workCounts()
	for i := range after {
		after[i] -= before[i]
	}
	return after
}

// TestServiceWarmJobSkipsWork: a cold job builds its target, runs the
// shadow pass (which doubles as the profiling run, so the search makes
// none of its own), analyses the image's dataflow and builds a unit
// runner, once each. A warm resubmission does none of it: the spec memo
// holds the target and the analyses, and the verdict cache every
// verdict.
func TestServiceWarmJobSkipsWork(t *testing.T) {
	srv, err := New(Options{Dir: t.TempDir(), Workers: 2, Fleet: fastFleet})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	run := func() [5]int64 {
		before := workCounts()
		j, err := srv.Submit(jobs.Spec{Kernel: "ep"})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, srv, j.ID, jobs.StateDone)
		return workSince(before)
	}
	const names = "target builds/shadow passes/profiling runs/dataflow analyses/runner builds"
	if got, want := run(), [5]int64{1, 1, 0, 1, 1}; got != want {
		t.Errorf("cold job: %s = %v, want %v", names, got, want)
	}
	if got := run(); got != [5]int64{} {
		t.Errorf("warm job: %s = %v, want none", names, got)
	}
}

// TestServiceWarmJobsConcurrent: concurrent submissions of one spec
// share one target build and one set of analyses (read-only; -race
// checks it), and the warm jobs that follow write the cold job's result
// file byte for byte.
func TestServiceWarmJobsConcurrent(t *testing.T) {
	srv, err := New(Options{Dir: t.TempDir(), Workers: 2, Fleet: fastFleet})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	before := workCounts()
	var cold [3]jobs.Job
	var wg sync.WaitGroup
	for i := range cold {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j, err := srv.Submit(jobs.Spec{Kernel: "ep"})
			if err != nil {
				t.Error(err)
			}
			cold[i] = j
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, j := range cold {
		waitState(t, srv, j.ID, jobs.StateDone)
	}
	if got := workSince(before); got[0] != 1 || got[1] != 1 || got[2] != 0 || got[3] != 1 {
		t.Errorf("concurrent submissions of one spec: target builds/shadow passes/profiling runs/dataflow analyses = %v, want 1/1/0/1", got[:4])
	}
	want := resultOf(t, srv, cold[0].ID)
	var warm [2]jobs.Job
	for i := range warm {
		if warm[i], err = srv.Submit(jobs.Spec{Kernel: "ep"}); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range append(cold[1:], warm[:]...) {
		waitState(t, srv, j.ID, jobs.StateDone)
		if resultOf(t, srv, j.ID) != want {
			t.Errorf("job %s wrote a different result file", j.ID)
		}
	}
	for _, j := range warm {
		sum, err := srv.Summary(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		if sum.Tested != 0 {
			t.Errorf("warm job %s evaluated %d configurations, want 0", j.ID, sum.Tested)
		}
	}
}

// TestImageMemoBounded: the spec memo never holds more than
// imageMemoCap entries, returns the same entry for one build key and a
// fresh one for another; the specs of one built image share a key
// whatever their search shape.
func TestImageMemoBounded(t *testing.T) {
	s := &Server{memo: make(map[string]*specMemo)}
	ep := jobs.Spec{Kernel: "ep"}
	first := s.memoFor(ep.BuildKey())
	if s.memoFor(jobs.Spec{Kernel: "ep", Class: "W", NoSens: true, Granularity: "func"}.BuildKey()) != first {
		t.Error("the same image missed the memo")
	}
	if s.memoFor(jobs.Spec{Kernel: "ep", Class: "A"}.BuildKey()) == first {
		t.Error("a different image hit another image's entry")
	}
	for i := 0; i < 3*imageMemoCap; i++ {
		s.memoFor(fmt.Sprintf("img%d", i))
		if n := len(s.memo); n > imageMemoCap {
			t.Fatalf("memo holds %d entries after %d lookups, want at most %d", n, i+3, imageMemoCap)
		}
	}
}

// TestServiceCancel: cancelling a running job interrupts it.
func TestServiceCancel(t *testing.T) {
	srv, err := New(Options{Dir: t.TempDir(), Workers: 2, Fleet: fastFleet})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	j, err := srv.Submit(jobs.Spec{Kernel: "mg"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, srv, j.ID, jobs.StateRunning)
	if err := srv.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		jj, _ := srv.Store().Get(j.ID)
		if jj.State.Terminal() {
			if jj.State != jobs.StateCancelled {
				t.Fatalf("cancelled job ended %s", jj.State)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("cancel never landed")
}

// TestServiceCancelQueuedLeavesNothing: a job cancelled straight after
// Submit, before its run goroutine has started work, still ends
// cancelled, and nothing of it outlives the run goroutine: no cancel
// func, no queued units, no result or summary.
func TestServiceCancelQueuedLeavesNothing(t *testing.T) {
	srv, err := New(Options{Dir: t.TempDir(), Workers: 2, Fleet: fastFleet})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	j, err := srv.Submit(jobs.Spec{Kernel: "mg"})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		jj, _ := srv.Store().Get(j.ID)
		srv.mu.Lock()
		_, live := srv.cancels[j.ID]
		srv.mu.Unlock()
		if jj.State.Terminal() && !live {
			if jj.State != jobs.StateCancelled {
				t.Fatalf("job cancelled while queued ended %s (error %q)", jj.State, jj.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job cancelled while queued is still %s (run goroutine live: %v)", jj.State, live)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := srv.Pool().QueueLen(); n != 0 {
		t.Errorf("cancelled job left %d units queued", n)
	}
	for _, path := range []string{srv.Store().ResultPath(j.ID), srv.Store().SummaryPath(j.ID)} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("cancelled job left %s behind (stat: %v)", path, err)
		}
	}
}

// gatedTransport is the pool's in-memory transport whose evaluators
// hold every unit at a gate, announcing each one as it arrives.
type gatedTransport struct {
	fleet.Direct
	gate    chan struct{}
	started chan struct{}
}

func (g gatedTransport) Evaluator(ctx context.Context, job string) (remote.Evaluator, error) {
	ev, err := g.Direct.Evaluator(ctx, job)
	return gatedEval{ev, g}, err
}

type gatedEval struct {
	remote.Evaluator
	g gatedTransport
}

func (e gatedEval) Evaluate(u search.EvalUnit) (search.Verdict, error) {
	select {
	case e.g.started <- struct{}{}:
	default:
	}
	<-e.g.gate
	return e.Evaluator.Evaluate(u)
}

// TestServiceCancelWithdrawsLease: cancelling a job whose unit is leased
// to a worker stuck mid-evaluation settles the job cancelled without
// waiting for that evaluation; the worker's late report is discarded.
func TestServiceCancelWithdrawsLease(t *testing.T) {
	srv, err := New(Options{Dir: t.TempDir(), Workers: -1, Fleet: fastFleet})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr := gatedTransport{srv.Pool().Direct(), make(chan struct{}), make(chan struct{}, 1)}
	wctx, wcancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		remote.Serve(wctx, tr, remote.WorkerOptions{Name: "gated", Parallel: 1, Batch: 1})
	}()
	defer func() { wcancel(); <-done }()
	waitRemoteWorkers(t, srv, 1)
	j, err := srv.Submit(jobs.Spec{Kernel: "mg"})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-tr.started:
	case <-time.After(time.Minute):
		t.Fatal("no unit reached the gated worker")
	}
	if err := srv.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, srv, j.ID, jobs.StateCancelled) // the gate is still shut
	close(tr.gate)
	deadline := time.Now().Add(30 * time.Second)
	for {
		discarded := 0
		for _, w := range srv.Pool().Workers() {
			discarded += w.Discarded
		}
		if discarded >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the gated worker's late report was never discarded")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServiceGracefulShutdownRequeues: Close re-queues running jobs so
// the next incarnation resumes them.
func TestServiceGracefulShutdownRequeues(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Options{Dir: dir, Workers: 4, Fleet: fastFleet})
	if err != nil {
		t.Fatal(err)
	}
	j, err := srv.Submit(jobs.Spec{Kernel: "mg"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, srv, j.ID, jobs.StateRunning)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := jobs.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	jj, ok := st.Get(j.ID)
	if !ok {
		t.Fatal("job lost across graceful shutdown")
	}
	if jj.State != jobs.StateQueued || jj.Recovered != 1 {
		t.Errorf("graceful shutdown left state %s recovered %d, want queued/1", jj.State, jj.Recovered)
	}
}
