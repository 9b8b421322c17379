package fleet

import (
	"context"
	"testing"
	"time"

	"fpmix/internal/search"
)

// evalAsync runs EvaluateUnit in a goroutine and returns the result
// channel.
func evalAsync(j *JobHandle, key string) chan shardResult {
	out := make(chan shardResult, 1)
	go func() {
		v, err := j.EvaluateUnit(search.EvalUnit{Key: key, Label: key})
		out <- shardResult{v: v, err: err}
	}()
	return out
}

// claimSoon polls Claim (for a single unit) until a lease arrives (the
// shard queue is fed by a concurrent EvaluateUnit).
func claimSoon(t *testing.T, p *Pool, id string) Lease {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		leases, _, err := p.Claim(context.Background(), id, 50*time.Millisecond, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(leases) > 0 {
			return leases[0]
		}
	}
	t.Fatal("no lease arrived")
	return Lease{}
}

// report delivers one lease's outcome as a single-entry batch.
func report(p *Pool, id string, l Lease, v search.Verdict, evalErr string) (bool, error) {
	acc, err := p.ReportBatch(id, []Report{{Job: l.Job, Key: l.Unit.Key, Epoch: l.Epoch, Verdict: v, Err: evalErr}})
	if err != nil {
		return false, err
	}
	return acc[0], nil
}

// TestRemoteClaimReport drives the basic remote cycle: register, claim,
// report, verdict delivered to the waiting unit.
func TestRemoteClaimReport(t *testing.T) {
	p := New(Options{Heartbeat: 10 * time.Millisecond, Expiry: 30 * time.Second})
	defer p.Close()
	id, hb, exp := p.Join("rack1", 1)
	if hb <= 0 || exp <= 0 {
		t.Fatalf("Join returned heartbeat %v expiry %v", hb, exp)
	}
	j := p.Register(context.Background(), "j0001", &fakeEval{})
	res := evalAsync(j, "k1")
	lease := claimSoon(t, p, id)
	if lease.Job != "j0001" || lease.Unit.Key != "k1" {
		t.Fatalf("lease %+v, want j0001/k1", lease)
	}
	acc, err := report(p, id, lease, search.Verdict{Pass: true}, "")
	if err != nil || !acc {
		t.Fatalf("Report: accepted=%v err=%v", acc, err)
	}
	r := <-res
	if r.err != nil || !r.v.Pass {
		t.Fatalf("unit result %+v", r)
	}
	for _, w := range p.Workers() {
		if w.ID == id && (w.Done != 1 || w.Name != "rack1") {
			t.Errorf("worker snapshot %+v, want done=1 name=rack1", w)
		}
	}
}

// TestRemoteReportIdempotent: a duplicated report RPC (the retry after
// a dropped response) must be discarded — the verdict lands exactly
// once.
func TestRemoteReportIdempotent(t *testing.T) {
	p := New(Options{})
	defer p.Close()
	id, _, _ := p.Join("dup", 1)
	j := p.Register(context.Background(), "j0001", &fakeEval{})
	res := evalAsync(j, "k1")
	lease := claimSoon(t, p, id)
	if acc, err := report(p, id, lease, search.Verdict{Pass: true}, ""); err != nil || !acc {
		t.Fatalf("first report: accepted=%v err=%v", acc, err)
	}
	if acc, err := report(p, id, lease, search.Verdict{Pass: false}, ""); err != nil || acc {
		t.Fatalf("duplicate report: accepted=%v err=%v, want discarded", acc, err)
	}
	if r := <-res; !r.v.Pass {
		t.Fatal("duplicate delivery overwrote the verdict")
	}
	for _, w := range p.Workers() {
		if w.ID == id && w.Discarded != 1 {
			t.Errorf("discarded=%d, want 1", w.Discarded)
		}
	}
}

// TestRemoteClaimRedelivery: when the claim response is lost, the
// worker's next claim re-delivers the same lease with the same epoch —
// the idempotency token is unchanged — never a fresh-epoch duplicate of
// a unit the worker already holds.
func TestRemoteClaimRedelivery(t *testing.T) {
	p := New(Options{})
	defer p.Close()
	id, _, _ := p.Join("lossy", 1)
	j := p.Register(context.Background(), "j0001", &fakeEval{})
	res := evalAsync(j, "k1")
	res2 := evalAsync(j, "k2long") // a second unit is queued behind
	first := claimSoon(t, p, id)
	again, state, err := p.Claim(context.Background(), id, 0, 1, nil)
	if err != nil || len(again) == 0 {
		t.Fatalf("re-claim: leases=%v state=%s err=%v", again, state, err)
	}
	// Held leases come back first; the re-claim may also top up with the
	// queued second unit, but the held one keeps its epoch and is never
	// duplicated.
	if again[0].Unit.Key != first.Unit.Key || again[0].Epoch != first.Epoch {
		t.Fatalf("re-claim delivered %s@%d, want %s@%d", again[0].Unit.Key, again[0].Epoch, first.Unit.Key, first.Epoch)
	}
	for _, l := range again[1:] {
		if l.Unit.Key == first.Unit.Key {
			t.Fatalf("re-claim duplicated held unit %s under epoch %d", l.Unit.Key, l.Epoch)
		}
	}
	if acc, _ := report(p, id, first, search.Verdict{Pass: true}, ""); !acc {
		t.Fatal("report after redelivery not accepted")
	}
	second := claimSoon(t, p, id)
	if second.Unit.Key == first.Unit.Key {
		t.Fatal("second claim re-delivered a settled unit")
	}
	report(p, id, second, search.Verdict{Pass: true}, "")
	<-res
	<-res2
}

// TestRemoteStaleEpochDiscarded: a lease broken by expiry and
// reassigned to another worker must reject the first worker's late
// report — its epoch is stale, so the unit cannot double-count.
func TestRemoteStaleEpochDiscarded(t *testing.T) {
	fc := newFakeClock()
	p := New(Options{Heartbeat: time.Hour, Expiry: time.Minute, Clock: fc.Now})
	defer p.Close()
	dead, _, _ := p.Join("doomed", 1)
	j := p.Register(context.Background(), "j0001", &fakeEval{})
	res := evalAsync(j, "k1")
	stale := claimSoon(t, p, dead)

	// The doomed worker partitions: no beats, lease expires on the
	// pool's clock, shard requeues.
	fc.Advance(2 * time.Minute)
	surv, _, _ := p.Join("survivor", 1)
	p.sweep()
	fresh := claimSoon(t, p, surv)
	if fresh.Unit.Key != stale.Unit.Key || fresh.Epoch == stale.Epoch {
		t.Fatalf("reassigned lease %s@%d vs original %s@%d: want same unit, new epoch",
			fresh.Unit.Key, fresh.Epoch, stale.Unit.Key, stale.Epoch)
	}
	// The partition heals; the doomed worker's late report must die.
	if acc, err := report(p, dead, stale, search.Verdict{Pass: false}, ""); acc || err == nil {
		t.Fatalf("late report from expired worker: accepted=%v err=%v, want rejected with ErrUnknownWorker", acc, err)
	}
	if acc, _ := report(p, surv, fresh, search.Verdict{Pass: true}, ""); !acc {
		t.Fatal("current holder's report rejected")
	}
	if r := <-res; r.err != nil || !r.v.Pass {
		t.Fatalf("unit result %+v", r)
	}
}

// TestRemoteQuarantine: QuarantineAfter consecutive worker-reported
// failures bench the worker — visible in the registry, still
// heartbeating, never assigned again — and its units reassign.
func TestRemoteQuarantine(t *testing.T) {
	p := New(Options{QuarantineAfter: 2})
	defer p.Close()
	bad, _, _ := p.Join("bad", 1)
	good, _, _ := p.Join("good", 1)
	j := p.Register(context.Background(), "j0001", &fakeEval{})
	res := evalAsync(j, "k1")

	for i := 0; i < 2; i++ {
		lease := claimSoon(t, p, bad)
		acc, err := report(p, bad, lease, search.Verdict{}, "oom")
		if err != nil || !acc {
			t.Fatalf("failure report %d: accepted=%v err=%v", i, acc, err)
		}
	}
	if leases, state, err := p.Claim(context.Background(), bad, 0, 1, nil); err != nil || len(leases) != 0 || state != WorkerQuarantined {
		t.Fatalf("claim after quarantine: leases=%v state=%s err=%v, want none/quarantined", leases, state, err)
	}
	if st, err := p.Heartbeat(bad, 0); err != nil || st != WorkerQuarantined {
		t.Fatalf("quarantined worker heartbeat: state=%s err=%v, want it kept alive", st, err)
	}
	lease := claimSoon(t, p, good)
	if acc, _ := report(p, good, lease, search.Verdict{Pass: true}, ""); !acc {
		t.Fatal("healthy worker's report rejected")
	}
	if r := <-res; r.err != nil || !r.v.Pass {
		t.Fatalf("unit result %+v after quarantine reassignment", r)
	}
	for _, w := range p.Workers() {
		if w.ID == bad && (w.State != WorkerQuarantined || w.Fails != 2) {
			t.Errorf("bad worker snapshot %+v, want quarantined fails=2", w)
		}
	}
	if p.Alive() != 1 {
		t.Errorf("Alive() = %d with one healthy and one quarantined worker", p.Alive())
	}
}

// TestRemoteFailureCountResets: a success between failures resets the
// quarantine strike count.
func TestRemoteFailureCountResets(t *testing.T) {
	p := New(Options{QuarantineAfter: 2})
	defer p.Close()
	id, _, _ := p.Join("flaky", 1)
	j := p.Register(context.Background(), "j0001", &fakeEval{})
	keys := []string{"k1", "k2", "k3"}
	var results []chan shardResult
	for _, k := range keys {
		results = append(results, evalAsync(j, k))
	}
	// fail, succeed, fail: never two consecutive — no quarantine.
	for i := 0; i < 3; i++ {
		lease := claimSoon(t, p, id)
		if i == 1 {
			report(p, id, lease, search.Verdict{Pass: true}, "")
		} else {
			report(p, id, lease, search.Verdict{}, "flake")
		}
	}
	// Settle whatever remains.
	for done := false; !done; {
		leases, state, err := p.Claim(context.Background(), id, 50*time.Millisecond, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if state == WorkerQuarantined {
			t.Fatal("worker quarantined despite non-consecutive failures")
		}
		if len(leases) == 0 {
			done = true
			continue
		}
		for _, lease := range leases {
			report(p, id, lease, search.Verdict{Pass: true}, "")
		}
	}
	for _, res := range results {
		if r := <-res; r.err != nil {
			t.Fatal(r.err)
		}
	}
}

// TestRemoteInterruptedReportRequeues: a worker draining gracefully
// reports its unit interrupted; the pool must requeue it for another
// worker — never deliver the interrupt to a live search — and must not
// count it as a quarantine strike.
func TestRemoteInterruptedReportRequeues(t *testing.T) {
	p := New(Options{QuarantineAfter: 1})
	defer p.Close()
	leaving, _, _ := p.Join("leaving", 1)
	staying, _, _ := p.Join("staying", 1)
	j := p.Register(context.Background(), "j0001", &fakeEval{})
	res := evalAsync(j, "k1")
	lease := claimSoon(t, p, leaving)
	acc, err := report(p, leaving, lease, search.Verdict{Interrupted: true}, "")
	if err != nil || !acc {
		t.Fatalf("interrupt report: accepted=%v err=%v", acc, err)
	}
	select {
	case r := <-res:
		t.Fatalf("interrupted verdict reached the search: %+v", r)
	default:
	}
	for _, w := range p.Workers() {
		if w.ID == leaving && w.State == WorkerQuarantined {
			t.Fatal("graceful interrupt counted as a quarantine strike")
		}
	}
	re := claimSoon(t, p, staying)
	if re.Unit.Key != "k1" {
		t.Fatalf("requeued unit %q, want k1", re.Unit.Key)
	}
	report(p, staying, re, search.Verdict{Pass: true}, "")
	if r := <-res; r.err != nil || !r.v.Pass {
		t.Fatalf("unit result %+v", r)
	}
}

// TestRemoteFallbackInProcess: a pool whose last assignable worker
// dies degrades to in-process evaluation instead of failing units —
// queued, in-flight and future ones alike.
func TestRemoteFallbackInProcess(t *testing.T) {
	p := New(Options{Heartbeat: time.Hour, Expiry: time.Minute})
	defer p.Close()
	ev := &fakeEval{}
	j := p.Register(context.Background(), "j0001", ev)

	// No workers at all: the unit runs in-process immediately.
	if v, err := j.EvaluateUnit(search.EvalUnit{Key: "k1"}); err != nil || !v.Pass {
		t.Fatalf("fallback verdict %+v err=%v, want pass", v, err)
	}
	if p.Fallbacks() != 1 {
		t.Fatalf("Fallbacks() = %d, want 1", p.Fallbacks())
	}

	// A worker joins, claims a unit, then dies: the unit must fall back,
	// not strand.
	id, _, _ := p.Join("mortal", 1)
	res := evalAsync(j, "k2")
	claimSoon(t, p, id)
	if err := p.Kill(id); err != nil {
		t.Fatal(err)
	}
	if r := <-res; r.err != nil || !r.v.Pass {
		t.Fatalf("fallback after worker death: %+v", r)
	}
	if p.Fallbacks() != 2 {
		t.Errorf("Fallbacks() = %d, want 2", p.Fallbacks())
	}
}

// TestRemoteUnknownWorker: every RPC against an unregistered or dead
// identity reports ErrUnknownWorker (the wire's 410).
func TestRemoteUnknownWorker(t *testing.T) {
	p := New(Options{})
	defer p.Close()
	if _, err := p.Heartbeat("r99", 0); err != ErrUnknownWorker {
		t.Errorf("Heartbeat(r99) err = %v", err)
	}
	if _, _, err := p.Claim(context.Background(), "r99", 0, 1, nil); err != ErrUnknownWorker {
		t.Errorf("Claim(r99) err = %v", err)
	}
	if _, err := p.ReportBatch("r99", []Report{{Job: "j", Key: "k", Epoch: 1}}); err != ErrUnknownWorker {
		t.Errorf("ReportBatch(r99) err = %v", err)
	}
	id, _, _ := p.Join("gone", 1)
	p.Kill(id)
	if _, err := p.Heartbeat(id, 0); err != ErrUnknownWorker {
		t.Errorf("Heartbeat(dead) err = %v", err)
	}
}

// TestRemoteDrain: Drain stops new leases while letting the in-flight
// one deliver, returning once nothing is held; a unit arriving during
// the drain evaluates in-process instead of shipping to a worker.
func TestRemoteDrain(t *testing.T) {
	p := New(Options{})
	defer p.Close()
	id, _, _ := p.Join("draining", 1)
	ev := &fakeEval{}
	j := p.Register(context.Background(), "j0001", ev)
	res1 := evalAsync(j, "k1")
	lease := claimSoon(t, p, id)
	drained := make(chan int, 1)
	go func() { drained <- p.Drain(5 * time.Second) }()
	// In-flight lease still delivers.
	if acc, _ := report(p, id, lease, search.Verdict{Pass: true}, ""); !acc {
		t.Fatal("in-flight report rejected during drain")
	}
	if r := <-res1; r.err != nil || !r.v.Pass {
		t.Fatalf("drained in-flight unit %+v", r)
	}
	if n := <-drained; n != 0 {
		t.Fatalf("Drain = %d after delivery", n)
	}
	// No new lease while draining: the next unit runs in-process.
	if v, err := j.EvaluateUnit(search.EvalUnit{Key: "k2"}); err != nil || !v.Pass || p.Fallbacks() != 1 {
		t.Fatalf("unit during drain: %+v err=%v fallbacks=%d, want an in-process pass", v, err, p.Fallbacks())
	}
	if leases, _, _ := p.Claim(context.Background(), id, 0, 1, nil); len(leases) != 0 {
		t.Fatal("drain granted a new lease")
	}
}

// TestRemoteReleaseBreaksLease: cancelling a job's context settles its
// leased unit interrupted at once — no error, no wait for the worker —
// and the worker's late report is discarded.
func TestRemoteReleaseBreaksLease(t *testing.T) {
	p := New(Options{})
	defer p.Close()
	id, _, _ := p.Join("stuck", 1)
	ctx, cancel := context.WithCancel(context.Background())
	j := p.Register(ctx, "j0001", &fakeEval{})
	res := evalAsync(j, "k1")
	lease := claimSoon(t, p, id)
	cancel()
	if r := <-res; r.err != nil || !r.v.Interrupted {
		t.Fatalf("withdrawn unit %+v, want interrupted", r)
	}
	if acc, err := report(p, id, lease, search.Verdict{Pass: true}, ""); acc || err != nil {
		t.Fatalf("late report after withdrawal: accepted=%v err=%v, want discarded", acc, err)
	}
	for _, w := range p.Workers() {
		if w.ID == id && (w.Discarded != 1 || w.InFlight != 0 || w.Fails != 0) {
			t.Errorf("worker snapshot %+v, want discarded=1, nothing held, no strike", w)
		}
	}
	if _, err := p.evaluator("j0001"); err == nil {
		t.Error("cancelled job still hands out its evaluator")
	}
}

// TestRemoteInterruptQueued: cancelling a job's context settles its
// queued units — and every unit it enqueues later — as interrupted,
// leaving other jobs' units queued.
func TestRemoteInterruptQueued(t *testing.T) {
	p := New(Options{})
	defer p.Close()
	p.Join("idle", 1) // assignable, so units queue instead of falling back
	ctx, cancel := context.WithCancel(context.Background())
	j := p.Register(ctx, "j0001", &fakeEval{})
	other := p.Register(context.Background(), "j0002", &fakeEval{})
	res := evalAsync(j, "k1")
	waitQueue(t, p, 1)
	bystander := evalAsync(other, "k1")
	waitQueue(t, p, 2)
	cancel()
	if r := <-res; r.err != nil || !r.v.Interrupted {
		t.Fatalf("queued unit %+v, want interrupted", r)
	}
	if v, err := j.EvaluateUnit(search.EvalUnit{Key: "k2"}); err != nil || !v.Interrupted {
		t.Fatalf("post-cancel unit %+v err=%v, want interrupted", v, err)
	}
	if n := p.QueueLen(); n != 1 {
		t.Fatalf("QueueLen() = %d after withdrawal, want the other job's unit only", n)
	}
	p.Close()
	<-bystander
}
