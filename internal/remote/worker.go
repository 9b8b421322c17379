package remote

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"fpmix/internal/faultinject"
	"fpmix/internal/search"
)

// WorkerOptions configure one worker runtime.
type WorkerOptions struct {
	// Server is the daemon base URL (e.g. http://127.0.0.1:8606); Run
	// only.
	Server string
	// Name is the worker's self-reported label, shown in
	// `fpmixctl workers`.
	Name string
	// Poll is the claim long-poll window (default 2s).
	Poll time.Duration
	// Parallel is how many evaluations run concurrently over the job's
	// shared UnitRunner (default runtime.NumCPU()).
	Parallel int
	// Batch is how many leases the worker keeps in hand not yet
	// evaluated — evaluating plus prefetched — and the upper bound on
	// verdicts per report RPC (default max(4, 2×Parallel)). Room frees
	// as each evaluation ends, before its report lands, so the claim
	// loop tops the window up while verdicts cross the link back.
	Batch int
	// Net arms deterministic network chaos on every RPC (Run only).
	Net *faultinject.NetInjector
	// Sabotage > 0 reports the first N claimed units as worker-side
	// evaluation failures instead of evaluating them — a chaos knob
	// that drives the daemon's requeue and quarantine paths.
	Sabotage int
	// Logf receives progress lines (nil discards them).
	Logf func(format string, args ...any)
}

// Transport is a worker runtime's path to the fleet: the four protocol
// RPCs plus the lookup of the evaluator a leased job's units run on.
// *Client speaks it over HTTP to a remote daemon; fleet.Direct calls
// the pool inside the daemon's own address space, which is how fpmixd's
// local workers run this same runtime. Identity loss surfaces as an
// error wrapping ErrGone on either transport.
type Transport interface {
	Register(ctx context.Context, name string, parallel int) (RegisterResponse, error)
	Claim(ctx context.Context, worker string, wait time.Duration, max int, held []int) (ClaimResponse, error)
	Heartbeat(ctx context.Context, worker string, inflight int) (HeartbeatResponse, error)
	Report(ctx context.Context, req ReportRequest) ([]bool, error)
	Evaluator(ctx context.Context, job string) (Evaluator, error)
}

// Evaluator executes one evaluation unit to a verdict: a job's shared
// *search.UnitRunner (safe for concurrent use); tests substitute fakes.
type Evaluator interface {
	Evaluate(u search.EvalUnit) (search.Verdict, error)
}

// Run drives a worker against the daemon at opts.Server until ctx is
// cancelled: Serve over the HTTP Client.
func Run(ctx context.Context, opts WorkerOptions) error {
	return Serve(ctx, NewClient(opts.Server, opts.Net), opts)
}

// Serve drives a worker over the transport until ctx is cancelled:
// register, then pipeline claim → evaluate → report under one
// identity, heartbeating in the background. Claims keep Batch
// unevaluated leases in hand while the current ones evaluate on a pool
// of Parallel goroutines and park at the daemon while there is no new
// work; each ready batch of verdicts ships at once, without waiting for
// the previous report to be answered — so RPC round-trips overlap with
// evaluation instead of serializing with it. The wire
// protocol's failure recovery is built in: transient transport errors
// retry with jittered backoff (inside the HTTP client per RPC, and
// across the register/claim loops so a briefly-unreachable daemon never
// sees a synchronized thundering herd from a large fleet), ErrGone
// (daemon restarted, worker killed or expired) re-registers under a
// fresh identity, quarantine drains the claim loop while heartbeats
// keep the bench visible, and a cancellation mid-evaluation reports
// the remaining units Interrupted over a short grace context so the
// daemon requeues them immediately instead of waiting out the leases.
func Serve(ctx context.Context, t Transport, opts WorkerOptions) error {
	if opts.Poll <= 0 {
		opts.Poll = 2 * time.Second
	}
	if opts.Parallel <= 0 {
		opts.Parallel = runtime.NumCPU()
	}
	if opts.Batch <= 0 {
		opts.Batch = 2 * opts.Parallel
		if opts.Batch < 4 {
			opts.Batch = 4
		}
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	w := &workerRT{t: t, opts: opts}
	streak := 0
	for ctx.Err() == nil {
		reg, err := t.Register(ctx, opts.Name, opts.Parallel)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			opts.Logf("register: %v", err)
			streak++
			backoff(ctx, backoffAttempt(streak))
			continue
		}
		streak = 0
		opts.Logf("registered as %s (heartbeat %dms, expiry %dms, parallel %d, batch %d)",
			reg.ID, reg.HeartbeatMS, reg.ExpiryMS, opts.Parallel, opts.Batch)
		if err := w.serve(ctx, reg); errors.Is(err, ErrGone) {
			opts.Logf("identity %s gone; re-registering", reg.ID)
			continue
		} else if err != nil && ctx.Err() == nil {
			opts.Logf("serve: %v", err)
			streak++
			backoff(ctx, backoffAttempt(streak))
		}
	}
	return nil
}

// backoffAttempt caps a failure streak at the client's deepest backoff
// step so the delay saturates instead of overflowing.
func backoffAttempt(streak int) int {
	if streak > maxAttempts {
		return maxAttempts
	}
	return streak
}

// workerRT is the runtime state behind Serve.
type workerRT struct {
	t    Transport
	opts WorkerOptions

	mu          sync.Mutex
	sabotaged   int
	held        map[int]struct{} // epochs of leases claimed and not yet acknowledged as reported
	reported    map[string]int   // job\x00key → highest epoch already reported
	unevaluated int              // held leases whose evaluation has not ended
	evals       int              // evaluations running right now
	slot        chan struct{}    // pulsed when an evaluation ends and frees window room
}

// reportedCap bounds the reported-epoch memory; past it the map resets
// wholesale (the worst a forgotten entry costs is one wasted duplicate
// evaluation whose report the daemon discards).
const reportedCap = 4096

// heldEpochs lists the epochs of the leases in the worker's hands, for
// the claim that tells the daemon which leases need no re-delivery.
func (w *workerRT) heldEpochs() []int {
	w.mu.Lock()
	defer w.mu.Unlock()
	epochs := make([]int, 0, len(w.held))
	for e := range w.held {
		epochs = append(epochs, e)
	}
	return epochs
}

// room is how many more leases the window admits: Batch minus the held
// leases not yet evaluated.
func (w *workerRT) room() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.opts.Batch - w.unevaluated
}

// addHeld records a delivered lease; false means the worker already
// holds it (a daemon that ignores the held list re-delivers every held
// lease on every claim, so duplicates are routine, not an error) or
// already reported this epoch of its unit — a claim response composed
// while the report was in flight can re-deliver a lease the daemon has
// since retired, and evaluating that stale copy would burn a whole unit
// of CPU on a report the daemon can only discard. A real reassignment
// bumps the epoch, so genuinely re-leased units still evaluate.
func (w *workerRT) addHeld(l Lease) bool {
	k := l.Job + "\x00" + l.Unit.Key
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.held[l.Epoch]; ok {
		return false
	}
	if e, ok := w.reported[k]; ok && e >= l.Epoch {
		return false
	}
	w.held[l.Epoch] = struct{}{}
	w.unevaluated++
	return true
}

// dropHeld releases leases whose reports the daemon answered and
// remembers the epochs they carried.
func (w *workerRT) dropHeld(reports []UnitReport) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, r := range reports {
		k := r.Job + "\x00" + r.Key
		delete(w.held, r.Epoch)
		if len(w.reported) >= reportedCap {
			w.reported = make(map[string]int)
		}
		if e, ok := w.reported[k]; !ok || r.Epoch > e {
			w.reported[k] = r.Epoch
		}
	}
}

// evaluated frees a lease's window room once its evaluation ended and
// pulses the claim loop; the lease stays held until its report lands.
func (w *workerRT) evaluated() {
	w.mu.Lock()
	w.unevaluated--
	w.mu.Unlock()
	select {
	case w.slot <- struct{}{}:
	default:
	}
}

// inFlight is the count of evaluations running right now, reported in
// heartbeats and shown by `fpmixctl workers`.
func (w *workerRT) inFlight() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.evals
}

func (w *workerRT) evalStarted() {
	w.mu.Lock()
	w.evals++
	w.mu.Unlock()
}

func (w *workerRT) evalDone() {
	w.mu.Lock()
	w.evals--
	w.mu.Unlock()
}

// serve runs one registration epoch: a claim loop keeping the lease
// window full, Parallel evaluator goroutines, and a reporter shipping
// verdict batches back, all under the given identity until the context
// ends (returns nil) or the daemon forgets the identity (returns
// ErrGone). It returns once every report has been answered.
func (w *workerRT) serve(ctx context.Context, reg RegisterResponse) error {
	hctx, hcancel := context.WithCancel(ctx)
	defer hcancel()
	interval := time.Duration(reg.HeartbeatMS) * time.Millisecond
	if interval <= 0 {
		interval = time.Second
	}
	gone := make(chan struct{})
	var goneOnce sync.Once
	markGone := func() { goneOnce.Do(func() { close(gone) }) }
	go w.beat(hctx, reg.ID, interval, gone, markGone)

	w.mu.Lock()
	w.held = make(map[int]struct{})
	w.reported = make(map[string]int)
	w.unevaluated = 0
	w.evals = 0
	w.slot = make(chan struct{}, 1)
	w.mu.Unlock()

	// The claim loop keeps about Batch leases in pending; re-deliveries
	// can briefly exceed that, and then the claim loop waits for an
	// evaluator. The reporter never blocks, so results drains freely.
	pending := make(chan Lease, 2*w.opts.Batch)
	results := make(chan UnitReport, w.opts.Batch)
	var evals sync.WaitGroup
	for i := 0; i < w.opts.Parallel; i++ {
		evals.Add(1)
		go func() {
			defer evals.Done()
			for l := range pending {
				r := w.evalOne(ctx, l)
				w.evaluated()
				results <- r
			}
		}()
	}
	repDone := make(chan struct{})
	go func() {
		defer close(repDone)
		w.reportLoop(ctx, reg.ID, results, markGone)
	}()

	err := w.claimLoop(ctx, reg.ID, pending, gone)
	close(pending)
	evals.Wait()
	close(results)
	<-repDone
	return err
}

// claimLoop keeps the lease window full while evaluations run: whenever
// fewer than Batch held leases await or undergo evaluation it claims
// the difference, listing the leases it holds so the daemon re-delivers
// only lost ones and otherwise parks the claim until work arrives; with
// the window full it waits for an evaluation to end. Returns nil on
// context end, ErrGone when the daemon forgot the identity.
func (w *workerRT) claimLoop(ctx context.Context, id string, pending chan<- Lease, gone <-chan struct{}) error {
	streak := 0
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-gone:
			return ErrGone
		default:
		}
		want := w.room()
		if want <= 0 {
			select {
			case <-ctx.Done():
				return nil
			case <-gone:
				return ErrGone
			case <-w.slot:
			case <-time.After(w.opts.Poll):
			}
			continue
		}
		resp, err := w.t.Claim(ctx, id, w.opts.Poll, want, w.heldEpochs())
		if errors.Is(err, ErrGone) {
			return ErrGone
		}
		if ctx.Err() != nil {
			return nil
		}
		if err != nil {
			w.opts.Logf("claim: %v", err)
			streak++
			backoff(ctx, backoffAttempt(streak))
			continue
		}
		streak = 0
		if resp.State == "quarantined" {
			// Benched: stop claiming, keep heartbeating so the registry
			// shows the drained worker instead of expiring it.
			sleep(ctx, w.opts.Poll)
			continue
		}
		for _, l := range resp.Leases {
			if w.addHeld(l) {
				pending <- l
			}
		}
	}
}

// reportLoop ships verdicts back to the daemon: it blocks for the first
// result, drains whatever else is ready (up to Batch), and sends them
// in one RPC without waiting for the reports already in flight, so a
// verdict never waits out another report's round trip. After a
// cancellation the remaining results — the Interrupted reports of a
// graceful drain — flush over a short grace context so the daemon
// requeues the units now rather than waiting out the lease expiry. It
// returns once results is closed and every report has been answered.
func (w *workerRT) reportLoop(ctx context.Context, id string, results <-chan UnitReport, markGone func()) {
	var sends sync.WaitGroup
	defer sends.Wait()
	for first := range results {
		batch := []UnitReport{first}
	drain:
		for len(batch) < w.opts.Batch {
			select {
			case r, ok := <-results:
				if !ok {
					break drain
				}
				batch = append(batch, r)
			default:
				break drain
			}
		}
		sends.Add(1)
		go func() {
			defer sends.Done()
			w.sendReports(ctx, id, batch, markGone)
		}()
	}
}

// sendReports delivers one batch, retrying past the client's own
// retry budget until the daemon answers — verdicts cost evaluations
// and must not be dropped on a transient outage. A 410 ends the
// identity; after cancellation a single grace-context attempt flushes
// the batch and gives up.
func (w *workerRT) sendReports(ctx context.Context, id string, batch []UnitReport, markGone func()) {
	req := ReportRequest{Worker: id, Reports: batch}
	for streak := 0; ; streak++ {
		rctx := ctx
		var cancel context.CancelFunc
		if ctx.Err() != nil {
			rctx, cancel = context.WithTimeout(context.Background(), 5*time.Second)
		}
		accepted, err := w.t.Report(rctx, req)
		if cancel != nil {
			cancel()
		}
		switch {
		case errors.Is(err, ErrGone):
			markGone()
			w.dropHeld(batch)
			return
		case err == nil:
			for i, r := range batch {
				if i < len(accepted) && !accepted[i] {
					w.opts.Logf("report %s/%s: discarded (duplicate or lost lease)", r.Job, r.Key)
				}
			}
			w.dropHeld(batch)
			return
		}
		w.opts.Logf("report (%d units): %v", len(batch), err)
		if ctx.Err() != nil {
			// The grace attempt failed too; the daemon will requeue the
			// units when their leases expire.
			w.dropHeld(batch)
			return
		}
		backoff(ctx, backoffAttempt(streak+1))
	}
}

// beat heartbeats at the daemon-assigned interval, carrying the
// current in-flight evaluation count. A transient failure is ignored —
// the next tick retries, and claims/reports count as beats anyway —
// but a 410 Gone ends the registration epoch.
func (w *workerRT) beat(ctx context.Context, id string, interval time.Duration, gone <-chan struct{}, markGone func()) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-gone:
			return
		case <-t.C:
		}
		if _, err := w.t.Heartbeat(ctx, id, w.inFlight()); errors.Is(err, ErrGone) {
			markGone()
			return
		}
	}
}

// evalOne evaluates one leased unit to a report. The report echoes the
// lease's (job, key, epoch) idempotency token; the daemon judges it
// against the worker identity the reporter sends it under.
func (w *workerRT) evalOne(ctx context.Context, l Lease) UnitReport {
	rep := UnitReport{Job: l.Job, Key: l.Unit.Key, Epoch: l.Epoch}
	unit, uerr := l.Unit.Unit()
	switch {
	case uerr != nil:
		rep.Error = uerr.Error()
	case w.sabotageNext():
		rep.Error = "sabotage: injected worker-side fault"
	default:
		ev, err := w.t.Evaluator(ctx, l.Job)
		if err != nil {
			rep.Error = err.Error()
		} else {
			w.evalStarted()
			v, err := ev.Evaluate(unit)
			w.evalDone()
			if err != nil {
				rep.Error = err.Error()
			} else {
				rep.Verdict = v
			}
		}
	}
	if rep.Error != "" && ctx.Err() != nil {
		// The failure was our own shutdown tearing the stack down, not a
		// broken environment: report an interrupt (requeue, no strike).
		rep.Error = ""
		rep.Verdict = search.Verdict{Interrupted: true}
	}
	return rep
}

// sabotageNext consumes one sabotage token if any remain.
func (w *workerRT) sabotageNext() bool {
	if w.opts.Sabotage <= 0 {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sabotaged >= w.opts.Sabotage {
		return false
	}
	w.sabotaged++
	return true
}

// sleep waits d or until ctx ends.
func sleep(ctx context.Context, d time.Duration) {
	select {
	case <-time.After(d):
	case <-ctx.Done():
	}
}
