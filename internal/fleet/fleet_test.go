package fleet

import (
	"context"
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"fpmix/internal/remote"
	"fpmix/internal/search"
)

// fakeEval settles units instantly: pass iff the key has even length.
type fakeEval struct {
	mu    sync.Mutex
	calls int
}

func (f *fakeEval) Evaluate(u search.EvalUnit) (search.Verdict, error) {
	f.mu.Lock()
	f.calls++
	f.mu.Unlock()
	return search.Verdict{Pass: len(u.Key)%2 == 0, Attempts: 1}, nil
}

// gateEval blocks every evaluation until the gate closes.
type gateEval struct {
	gate    chan struct{}
	started chan string // receives the unit key as evaluation begins
}

func (g *gateEval) Evaluate(u search.EvalUnit) (search.Verdict, error) {
	if g.started != nil {
		g.started <- u.Key
	}
	<-g.gate
	return search.Verdict{Pass: true, Attempts: 1}, nil
}

func waitBusy(t *testing.T, p *Pool) WorkerInfo {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, w := range p.Workers() {
			if w.State == WorkerBusy {
				return w
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no worker went busy")
	return WorkerInfo{}
}

// muteTransport is the in-memory transport with per-worker heartbeat
// muting: a muted worker keeps evaluating, but its beats never reach
// the pool — a silent death the monitor must detect on its own.
type muteTransport struct {
	Direct
	mu    sync.Mutex
	muted map[string]bool
}

func (m *muteTransport) Heartbeat(ctx context.Context, id string, inflight int) (remote.HeartbeatResponse, error) {
	m.mu.Lock()
	muted := m.muted[id]
	m.mu.Unlock()
	if muted {
		return remote.HeartbeatResponse{State: string(WorkerBusy)}, nil
	}
	return m.Direct.Heartbeat(ctx, id, inflight)
}

func (m *muteTransport) mute(id string) {
	m.mu.Lock()
	m.muted[id] = true
	m.mu.Unlock()
}

// serveWorkers runs n workers the way fpmixd runs its local ones —
// remote.Serve over the pool's in-memory transport, Parallel 1, Batch
// 1 — until the test ends, and waits until all have joined.
func serveWorkers(t *testing.T, p *Pool, n int) *muteTransport {
	t.Helper()
	tr := &muteTransport{Direct: p.Direct(), muted: make(map[string]bool)}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			remote.Serve(ctx, tr, remote.WorkerOptions{Name: "local", Parallel: 1, Batch: 1})
		}()
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
	})
	deadline := time.Now().Add(5 * time.Second)
	for p.Alive() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d workers joined", p.Alive(), n)
		}
		time.Sleep(time.Millisecond)
	}
	return tr
}

func TestPoolShardsAllUnits(t *testing.T) {
	p := New(Options{})
	defer p.Close()
	serveWorkers(t, p, 4)
	ev := &fakeEval{}
	j := p.Register(context.Background(), "j0001", ev)

	const units = 50
	var wg sync.WaitGroup
	errs := make(chan error, units)
	for i := 0; i < units; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := strings.Repeat("k", i%5+1)
			v, err := j.EvaluateUnit(search.EvalUnit{Key: key, Label: fmt.Sprintf("u%d", i)})
			if err != nil {
				errs <- err
				return
			}
			if want := len(key)%2 == 0; v.Pass != want {
				errs <- fmt.Errorf("unit %d: pass=%v want %v", i, v.Pass, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if ev.calls != units {
		t.Errorf("%d evaluations for %d units", ev.calls, units)
	}
	done := 0
	for _, w := range p.Workers() {
		done += w.Done
	}
	if done != units {
		t.Errorf("workers account %d accepted deliveries, want %d", done, units)
	}
}

// TestPoolKillReassigns kills the lease holder mid-evaluation: the
// shard must requeue to a live worker, exactly one verdict must be
// delivered, and the dead worker's late result must be discarded.
func TestPoolKillReassigns(t *testing.T) {
	p := New(Options{Heartbeat: 10 * time.Millisecond})
	defer p.Close()
	serveWorkers(t, p, 2)
	g := &gateEval{gate: make(chan struct{}), started: make(chan string, 4)}
	j := p.Register(context.Background(), "j0001", g)

	res := make(chan error, 1)
	go func() {
		v, err := j.EvaluateUnit(search.EvalUnit{Key: "k1", Label: "piece"})
		if err == nil && !v.Pass {
			err = fmt.Errorf("verdict flipped")
		}
		res <- err
	}()
	<-g.started // first worker is inside Evaluate
	victim := waitBusy(t, p)
	if err := p.Kill(victim.ID); err != nil {
		t.Fatal(err)
	}
	<-g.started // the surviving worker re-claims the shard
	// The victim cannot re-register before its gated evaluation returns.
	if p.Alive() != 1 {
		t.Errorf("Alive() = %d after one kill of two workers", p.Alive())
	}
	close(g.gate) // release both evaluations
	if err := <-res; err != nil {
		t.Fatal(err)
	}
	// The dead worker's late delivery must be discarded, not double-sent.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var dead WorkerInfo
		for _, w := range p.Workers() {
			if w.ID == victim.ID {
				dead = w
			}
		}
		if dead.State == WorkerDead && dead.Discarded == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim %s: state=%s discarded=%d, want dead/1", victim.ID, dead.State, dead.Discarded)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoolReassignCap: a shard that outlives MaxReassign lease holders
// fails instead of looping forever.
func TestPoolReassignCap(t *testing.T) {
	p := New(Options{Heartbeat: 10 * time.Millisecond, MaxReassign: 2})
	defer p.Close()
	serveWorkers(t, p, 4)
	g := &gateEval{gate: make(chan struct{}), started: make(chan string, 8)}
	defer close(g.gate)
	j := p.Register(context.Background(), "j0001", g)

	res := make(chan error, 1)
	go func() {
		_, err := j.EvaluateUnit(search.EvalUnit{Key: "k1", Label: "cursed"})
		res <- err
	}()
	for i := 0; i < 3; i++ {
		<-g.started
		victim := waitBusy(t, p)
		if err := p.Kill(victim.ID); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-res:
		if err == nil || !strings.Contains(err.Error(), "reassigned") {
			t.Fatalf("want reassignment-cap error, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shard did not fail after exhausting its reassignment budget")
	}
}

// TestPoolHeartbeatExpiry: a worker that goes silent without an
// explicit Kill — the monitor must detect the stale heartbeat and
// reassign its shard.
func TestPoolHeartbeatExpiry(t *testing.T) {
	p := New(Options{Heartbeat: 10 * time.Millisecond, Expiry: 30 * time.Millisecond})
	defer p.Close()
	tr := serveWorkers(t, p, 2)
	g := &gateEval{gate: make(chan struct{}), started: make(chan string, 4)}
	j := p.Register(context.Background(), "j0001", g)

	res := make(chan error, 1)
	go func() {
		v, err := j.EvaluateUnit(search.EvalUnit{Key: "k1", Label: "piece"})
		if err == nil && !v.Pass {
			err = fmt.Errorf("verdict flipped")
		}
		res <- err
	}()
	<-g.started
	victim := waitBusy(t, p)
	tr.mute(victim.ID) // silent death: no Kill call
	<-g.started        // monitor reassigned to the survivor
	close(g.gate)
	if err := <-res; err != nil {
		t.Fatal(err)
	}
	for _, w := range p.Workers() {
		if w.ID == victim.ID && w.State != WorkerDead {
			t.Errorf("silent worker %s not declared dead (state %s)", w.ID, w.State)
		}
	}
}

// TestPoolNoWorkers: with no worker at all, a unit evaluates
// in-process on the job's own evaluator.
func TestPoolNoWorkers(t *testing.T) {
	p := New(Options{})
	defer p.Close()
	ev := &fakeEval{}
	j := p.Register(context.Background(), "j0001", ev)
	if v, err := j.EvaluateUnit(search.EvalUnit{Key: "kk"}); err != nil || !v.Pass {
		t.Fatalf("fallback verdict %+v err=%v, want pass", v, err)
	}
	if ev.calls != 1 || p.Fallbacks() != 1 {
		t.Fatalf("calls=%d fallbacks=%d, want one in-process evaluation", ev.calls, p.Fallbacks())
	}
}

func TestPoolCloseFailsQueued(t *testing.T) {
	p := New(Options{})
	serveWorkers(t, p, 1)
	g := &gateEval{gate: make(chan struct{}), started: make(chan string, 2)}
	j := p.Register(context.Background(), "j0001", g)

	first := make(chan error, 1)
	go func() {
		_, err := j.EvaluateUnit(search.EvalUnit{Key: "k1", Label: "running"})
		first <- err
	}()
	<-g.started // the only worker is busy; the next unit must queue
	second := make(chan error, 1)
	go func() {
		_, err := j.EvaluateUnit(search.EvalUnit{Key: "k2", Label: "queued"})
		second <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for p.QueueLen() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second unit never queued")
		}
		time.Sleep(time.Millisecond)
	}
	p.Close()
	if err := <-second; err == nil || !strings.Contains(err.Error(), "pool closed") {
		t.Fatalf("queued shard: want pool-closed error, got %v", err)
	}
	close(g.gate) // let the in-flight evaluation finish and deliver
	if err := <-first; err != nil {
		t.Fatalf("in-flight shard should still deliver: %v", err)
	}
}

// waitQueue blocks until at least n shards are queued.
func waitQueue(t *testing.T, p *Pool, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.QueueLen() < n {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d shards", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClaimFIFO: leases go out in queue order, whoever claims. A worker
// that ran a unit of one fork site has no claim on that site's later
// units, so a peer takes the head even when it is such a sibling and a
// unit of another site waits behind it; and a shard whose lease broke
// re-enters at the head, ahead of units queued before the break.
func TestClaimFIFO(t *testing.T) {
	p := New(quietOpts(newFakeClock()))
	defer p.Close()
	a, _, _ := p.Join("a", 1)
	b, _, _ := p.Join("b", 1)
	j := p.Register(context.Background(), "j0001", &fakeEval{})
	// enqueue queues a piece lowering addrs, keyed like the search keys
	// it: the byte image of the sorted address set, so its first eight
	// bytes are its fork site.
	enqueue := func(label string, addrs ...uint64) chan shardResult {
		var key []byte
		for _, addr := range addrs {
			key = binary.LittleEndian.AppendUint64(key, addr)
		}
		n := p.QueueLen()
		out := make(chan shardResult, 1)
		go func() {
			v, err := j.EvaluateUnit(search.EvalUnit{Key: string(key), Label: label, Addrs: addrs})
			out <- shardResult{v: v, err: err}
		}()
		waitQueue(t, p, n+1)
		return out
	}
	// claimNext claims one unit for id, checks it is want, and settles it.
	claimNext := func(id, want string) {
		t.Helper()
		l := claimSoon(t, p, id)
		if l.Unit.Label != want {
			t.Fatalf("%s claimed %q, want %q", id, l.Unit.Label, want)
		}
		if acc, err := report(p, id, l, search.Verdict{Pass: true}, ""); err != nil || !acc {
			t.Fatalf("report %s: accepted=%v err=%v", want, acc, err)
		}
	}
	var results []chan shardResult

	results = append(results, enqueue("s1a", 0x1000))
	claimNext(a, "s1a")
	results = append(results, enqueue("s1b", 0x1000, 0x1008), enqueue("s2a", 0x2000))
	claimNext(b, "s1b")
	claimNext(a, "s2a")

	results = append(results, enqueue("held", 0x3000))
	if l := claimSoon(t, p, b); l.Unit.Label != "held" {
		t.Fatalf("b claimed %q, want held", l.Unit.Label)
	}
	results = append(results, enqueue("q1", 0x4000), enqueue("q2", 0x5000))
	if err := p.Kill(b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"held", "q1", "q2"} {
		claimNext(a, want)
	}
	for _, res := range results {
		if r := <-res; r.err != nil || !r.v.Pass {
			t.Fatalf("unit result %+v", r)
		}
	}
}
