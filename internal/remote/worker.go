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

// WorkerOptions configure one out-of-process worker runtime.
type WorkerOptions struct {
	// Server is the daemon base URL (e.g. http://127.0.0.1:8606).
	Server string
	// Name is the worker's self-reported label, shown in
	// `fpmixctl workers`.
	Name string
	// Poll is the claim long-poll window (default 2s).
	Poll time.Duration
	// Parallel is how many evaluations run concurrently over the job's
	// shared UnitRunner (default runtime.NumCPU()).
	Parallel int
	// Batch is how many leases the worker keeps in hand — evaluating
	// plus prefetched — and the upper bound on verdicts per report RPC
	// (default max(4, 2×Parallel)). The claim loop tops the buffer up
	// while evaluations run, so delivery pipelines with execution.
	Batch int
	// Net arms deterministic network chaos on every RPC.
	Net *faultinject.NetInjector
	// Sabotage > 0 reports the first N claimed units as worker-side
	// evaluation failures instead of evaluating them — a chaos knob
	// that drives the daemon's requeue and quarantine paths.
	Sabotage int
	// Logf receives progress lines (nil discards them).
	Logf func(format string, args ...any)
}

// Run drives a worker until ctx is cancelled: register, then pipeline
// claim → evaluate → report under one identity, heartbeating in the
// background. Claims prefetch the next batch of units while the
// current ones evaluate on a pool of Parallel goroutines, and verdicts
// ship back in batches — so RPC round-trips overlap with evaluation
// instead of serializing with it. The wire protocol's failure recovery
// is built in: transient transport errors retry with jittered backoff
// (inside the client per RPC, and across the register/claim loops so a
// briefly-unreachable daemon never sees a synchronized thundering herd
// from a large fleet), a 410 Gone (daemon restarted, worker retired)
// re-registers under a fresh identity, quarantine drains the claim
// loop while heartbeats keep the bench visible, and a cancellation
// mid-evaluation reports the remaining units Interrupted over a short
// grace context so the daemon requeues them immediately instead of
// waiting out the leases.
func Run(ctx context.Context, opts WorkerOptions) error {
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
	w := &workerRT{
		c:       NewClient(opts.Server, opts.Net),
		opts:    opts,
		runCtx:  ctx,
		runners: make(map[string]*search.UnitRunner),
	}
	streak := 0
	for ctx.Err() == nil {
		reg, err := w.c.Register(ctx, opts.Name, opts.Parallel)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			opts.Logf("register: %v", err)
			streak++
			w.c.Backoff(ctx, backoffAttempt(streak))
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
			w.c.Backoff(ctx, backoffAttempt(streak))
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

// workerRT is the runtime state behind Run.
type workerRT struct {
	c      *Client
	opts   WorkerOptions
	runCtx context.Context

	mu        sync.Mutex
	runners   map[string]*search.UnitRunner // job ID → local evaluation stack
	sabotaged int
	held      map[string]struct{} // job\x00key of leases claimed and not yet reported
	reported  map[string]int      // job\x00key → highest epoch already reported
	evals     int                 // evaluations running right now
	slot      chan struct{}       // pulsed when reported units free batch room
}

// reportedCap bounds the reported-epoch memory; past it the map resets
// wholesale (the worst a forgotten entry costs is one wasted duplicate
// evaluation whose report the daemon discards).
const reportedCap = 4096

// heldCount is the number of leases in the worker's hands.
func (w *workerRT) heldCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.held)
}

// addHeld records a delivered lease; false means the worker already
// holds it (the daemon re-delivers every held lease on every claim, so
// duplicates are routine, not an error) or already reported this epoch
// of it — a claim response composed while the report was in flight
// re-delivers a lease the daemon has since retired, and evaluating
// that stale copy would burn a whole unit of CPU on a report the
// daemon can only discard. A real reassignment bumps the epoch, so
// genuinely re-leased units still evaluate.
func (w *workerRT) addHeld(l Lease) bool {
	k := l.Job + "\x00" + l.Unit.Key
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.held[k]; ok {
		return false
	}
	if e, ok := w.reported[k]; ok && e >= l.Epoch {
		return false
	}
	w.held[k] = struct{}{}
	return true
}

// dropHeld releases reported leases, remembers the epochs they carried
// and pulses the claim loop.
func (w *workerRT) dropHeld(reports []UnitReport) {
	w.mu.Lock()
	for _, r := range reports {
		k := r.Job + "\x00" + r.Key
		delete(w.held, k)
		if len(w.reported) >= reportedCap {
			w.reported = make(map[string]int)
		}
		if e, ok := w.reported[k]; !ok || r.Epoch > e {
			w.reported[k] = r.Epoch
		}
	}
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

// serve runs one registration epoch: a claim loop prefetching lease
// batches, Parallel evaluator goroutines, and a reporter batching
// verdicts back, all under the given identity until the context ends
// (returns nil) or the daemon forgets the identity (returns ErrGone).
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
	w.held = make(map[string]struct{})
	w.reported = make(map[string]int)
	w.evals = 0
	w.slot = make(chan struct{}, 1)
	w.mu.Unlock()

	// Buffers are sized so neither evaluators nor the reporter can
	// block the pipeline: at most Batch leases are ever held, so at
	// most Batch entries can sit in pending or results at once.
	pending := make(chan Lease, 2*w.opts.Batch)
	results := make(chan UnitReport, 2*w.opts.Batch+w.opts.Parallel)
	var evals sync.WaitGroup
	for i := 0; i < w.opts.Parallel; i++ {
		evals.Add(1)
		go func() {
			defer evals.Done()
			for l := range pending {
				results <- w.evalOne(ctx, l)
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

// claimLoop prefetches leases while evaluations run: whenever the
// worker holds fewer than Batch units it claims the difference,
// otherwise it waits for the reporter to free room. Returns nil on
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
		want := w.opts.Batch - w.heldCount()
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
		resp, err := w.c.Claim(ctx, id, w.opts.Poll, want)
		if errors.Is(err, ErrGone) {
			return ErrGone
		}
		if ctx.Err() != nil {
			return nil
		}
		if err != nil {
			w.opts.Logf("claim: %v", err)
			streak++
			w.c.Backoff(ctx, backoffAttempt(streak))
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

// reportLoop batches verdicts back to the daemon: it blocks for the
// first result, drains whatever else is ready (up to Batch), and ships
// them in one RPC. After a cancellation the remaining results — the
// Interrupted reports of a graceful drain — flush over a short grace
// context so the daemon requeues the units now rather than waiting out
// the lease expiry.
func (w *workerRT) reportLoop(ctx context.Context, id string, results <-chan UnitReport, markGone func()) {
	for {
		first, ok := <-results
		if !ok {
			return
		}
		batch := []UnitReport{first}
	drain:
		for len(batch) < w.opts.Batch {
			select {
			case r, ok := <-results:
				if !ok {
					w.sendReports(ctx, id, batch, markGone)
					return
				}
				batch = append(batch, r)
			default:
				break drain
			}
		}
		w.sendReports(ctx, id, batch, markGone)
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
		accepted, err := w.c.Report(rctx, req)
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
		w.c.Backoff(ctx, backoffAttempt(streak+1))
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
		if _, err := w.c.Heartbeat(ctx, id, w.inFlight()); errors.Is(err, ErrGone) {
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
		runner, err := w.runnerFor(ctx, l.Job)
		if err != nil {
			rep.Error = err.Error()
		} else {
			w.evalStarted()
			v, err := runner.Evaluate(unit)
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

// runnerFor returns the local evaluation stack for a job, building it
// on first use from the daemon-served job spec — the same engine mode
// and chaos wiring the daemon's own in-process runner uses, so remote
// verdicts are indistinguishable from local ones. Runners are cached
// per job for the life of the process (UnitRunner is safe for
// concurrent use, so all Parallel evaluators share one per job); job
// IDs are stable across daemon restarts and specs are immutable, so
// the cache never goes stale.
func (w *workerRT) runnerFor(ctx context.Context, job string) (*search.UnitRunner, error) {
	w.mu.Lock()
	if r, ok := w.runners[job]; ok {
		w.mu.Unlock()
		return r, nil
	}
	w.mu.Unlock()
	spec, err := w.c.JobSpec(ctx, job)
	if err != nil {
		return nil, err
	}
	target, _, err := spec.Build()
	if err != nil {
		return nil, err
	}
	mode := search.EngineFork
	if spec.NoFork {
		mode = search.EngineOn
	}
	var chaos *faultinject.Injector
	if spec.Chaos != 0 {
		chaos = faultinject.New(spec.Chaos, faultinject.DefaultRates, 0)
	}
	r, err := search.NewUnitRunner(target, search.Options{
		Engine:  mode,
		Context: w.runCtx,
		Chaos:   chaos,
	})
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if prev, ok := w.runners[job]; ok {
		return prev, nil
	}
	w.runners[job] = r
	return r, nil
}

// sleep waits d or until ctx ends.
func sleep(ctx context.Context, d time.Duration) {
	select {
	case <-time.After(d):
	case <-ctx.Done():
	}
}
