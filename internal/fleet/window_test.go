package fleet

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fpmix/internal/remote"
	"fpmix/internal/search"
)

// hookTransport is the in-memory transport with hooks on the lease
// RPCs: it counts claims, and onReport runs before each report is
// delivered — a hook that blocks holds that report on the link.
type hookTransport struct {
	Direct
	claims   atomic.Int64
	onReport func(req remote.ReportRequest)
}

func (h *hookTransport) Claim(ctx context.Context, worker string, wait time.Duration, max int, held []int) (remote.ClaimResponse, error) {
	h.claims.Add(1)
	return h.Direct.Claim(ctx, worker, wait, max, held)
}

func (h *hookTransport) Report(ctx context.Context, req remote.ReportRequest) ([]bool, error) {
	if h.onReport != nil {
		h.onReport(req)
	}
	return h.Direct.Report(ctx, req)
}

// serveOne runs one worker runtime over the transport until cleanup,
// which runs release first (to unblock held hooks) and then stops the
// worker and waits for it.
func serveOne(t *testing.T, p *Pool, tr remote.Transport, opts remote.WorkerOptions, release func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		remote.Serve(ctx, tr, opts)
	}()
	t.Cleanup(func() {
		release()
		cancel()
		<-done
	})
	deadline := time.Now().Add(5 * time.Second)
	for p.Alive() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("worker never joined")
		}
		time.Sleep(time.Millisecond)
	}
}

// countEval settles units instantly, counting evaluations; each call
// past the first waits for gate first (a nil gate never blocks).
type countEval struct {
	calls atomic.Int64
	gate  chan struct{}
}

func (c *countEval) Evaluate(u search.EvalUnit) (search.Verdict, error) {
	if c.calls.Add(1) > 1 && c.gate != nil {
		<-c.gate
	}
	return search.Verdict{Pass: true, Attempts: 1}, nil
}

// holdFirstReport returns a report hook that blocks the first report
// until release is called, plus a channel closed once that report is
// on the link. Later reports pass through.
func holdFirstReport() (hook func(remote.ReportRequest), held <-chan struct{}, release func()) {
	gate := make(chan struct{})
	started := make(chan struct{})
	var first sync.Once
	var releaseOnce sync.Once
	hook = func(remote.ReportRequest) {
		blocked := false
		first.Do(func() {
			close(started)
			blocked = true
		})
		if blocked {
			<-gate
		}
	}
	return hook, started, func() { releaseOnce.Do(func() { close(gate) }) }
}

// TestWindowFreesAtEvaluationEnd: a lease's window room frees when its
// evaluation ends, not when its report lands. With Batch 1 and the
// first report held on the link, the worker still claims and evaluates
// the second queued unit.
func TestWindowFreesAtEvaluationEnd(t *testing.T) {
	p := New(Options{})
	defer p.Close()
	hook, reporting, release := holdFirstReport()
	tr := &hookTransport{Direct: p.Direct(), onReport: hook}
	ev := &countEval{}
	j := p.Register(context.Background(), "j0001", ev)
	serveOne(t, p, tr, remote.WorkerOptions{Name: "slow-link", Parallel: 1, Batch: 1, Poll: time.Second}, release)
	res1, res2 := evalAsync(j, "k1"), evalAsync(j, "k2")
	<-reporting
	deadline := time.Now().Add(5 * time.Second)
	for ev.calls.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("%d evaluations while the first report was held, want 2", ev.calls.Load())
		}
		time.Sleep(time.Millisecond)
	}
	release()
	for _, res := range []chan shardResult{res1, res2} {
		if r := <-res; r.err != nil || !r.v.Pass {
			t.Fatalf("unit result %+v", r)
		}
	}
}

// TestReportsShipConcurrently: a ready verdict ships without waiting
// for the report in flight. While the first unit's report is held on
// the link, the second unit's report still goes out.
func TestReportsShipConcurrently(t *testing.T) {
	p := New(Options{})
	defer p.Close()
	hook, reporting, release := holdFirstReport()
	var reports atomic.Int64
	tr := &hookTransport{Direct: p.Direct(), onReport: func(req remote.ReportRequest) {
		reports.Add(1)
		hook(req)
	}}
	// The second evaluation waits until the first report is on the
	// link, so the first report carries the first unit alone.
	ev := &countEval{gate: make(chan struct{})}
	go func() {
		<-reporting
		close(ev.gate)
	}()
	j := p.Register(context.Background(), "j0001", ev)
	serveOne(t, p, tr, remote.WorkerOptions{Name: "slow-link", Parallel: 1, Batch: 4, Poll: time.Second}, release)
	res1, res2 := evalAsync(j, "k1"), evalAsync(j, "k2")
	<-reporting
	deadline := time.Now().Add(5 * time.Second)
	for reports.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("%d report calls while the first was held, want 2", reports.Load())
		}
		time.Sleep(time.Millisecond)
	}
	release()
	for _, res := range []chan shardResult{res1, res2} {
		if r := <-res; r.err != nil || !r.v.Pass {
			t.Fatalf("unit result %+v", r)
		}
	}
}

// TestClaimParksWhileLeaseEvaluates: a worker holding one slow lease,
// with nothing queued, lists that lease in its claims, so the daemon
// has nothing to re-deliver and the claim parks instead of answering
// at once; the worker makes at most 2 claims while the lease
// evaluates.
func TestClaimParksWhileLeaseEvaluates(t *testing.T) {
	p := New(Options{})
	defer p.Close()
	tr := &hookTransport{Direct: p.Direct()}
	ev := &gateEval{gate: make(chan struct{}), started: make(chan string, 1)}
	j := p.Register(context.Background(), "j0001", ev)
	var once sync.Once
	release := func() { once.Do(func() { close(ev.gate) }) }
	serveOne(t, p, tr, remote.WorkerOptions{Name: "parked", Parallel: 1, Batch: 4, Poll: 10 * time.Second}, release)
	res := evalAsync(j, "slow")
	<-ev.started
	before := tr.claims.Load()
	time.Sleep(200 * time.Millisecond)
	if n := tr.claims.Load() - before; n > 2 {
		t.Fatalf("%d claims while one lease evaluated with nothing queued, want at most 2", n)
	}
	release()
	if r := <-res; r.err != nil || !r.v.Pass {
		t.Fatalf("unit result %+v", r)
	}
}
