// Package fleet is the sharded-evaluation scheduler of the fpmixd
// service: a registry of workers and a piece-granular shard queue with
// lease/heartbeat semantics. The search coordinator stays in one
// process (internal/search keeps its deterministic queue trajectory)
// and routes every evaluation unit here through the search.UnitEvaluator
// seam; the pool leases each unit to a worker, requeues it when the
// worker dies — detected by a stopped heartbeat, or reported by Kill —
// and accepts a result only from the unit's current lease holder, so a
// late verdict from a dead worker can never race a reassigned one.
// Because unit verdicts are deterministic functions of their address
// sets, the composed final configuration is byte-identical to a serial
// run no matter how units are sharded, reassigned or replayed.
//
// Every worker is an internal/remote worker runtime speaking one
// protocol — register, claim, heartbeat, report — through a
// remote.Transport. fpmixworker processes speak it over HTTP; the
// daemon's own local workers run the same runtime over Direct, the
// in-memory transport, and evaluate on the job's registered runner.
// So leases, batching, epochs, affinity, quarantine and re-registration
// after a kill have one implementation. A worker may hold several
// leases at once (batched delivery sized to its declared parallelism);
// every lease carries its own owner+epoch idempotency token, so
// batching changes how many units ride one call, never the failure
// semantics. All lease-expiry decisions use the pool's own clock only:
// worker timestamps never enter them, so arbitrarily skewed worker
// clocks cannot expire or extend a lease.
//
// Shutdown is context-driven: a job registers with its context, and
// once that context ends its queued and leased units settle
// interrupted and leave the pool, so a late report is discarded and a
// live search can never receive an interrupted verdict. Drain stops new
// leases and waits for held ones to deliver.
//
// Scheduling prefers fork affinity: units sharing a fork point (their
// first single site) resume from the same donor snapshot under
// fork-point evaluation, so the pool routes them to the worker that
// already holds that snapshot when one exists, falling back to strict
// FIFO whenever affinity would starve the queue head.
package fleet

import (
	"context"
	"encoding/binary"
	"fmt"
	"strconv"
	"sync"
	"time"

	"fpmix/internal/remote"
	"fpmix/internal/search"
)

// Evaluator executes one evaluation unit to a verdict: a job's
// *search.UnitRunner, or a test fake.
type Evaluator = remote.Evaluator

// Options shape a pool's failure detection.
type Options struct {
	// Heartbeat is the interval at which live workers refresh their
	// lease (default 500ms); Expiry is the silence after which the
	// monitor declares a worker dead and reassigns its shard (default
	// 8×Heartbeat).
	Heartbeat time.Duration
	Expiry    time.Duration
	// MaxReassign bounds how many times one shard may be reassigned
	// before the pool gives up and fails it (default 3) — a shard that
	// kills every worker it touches must not take the fleet down with
	// it.
	MaxReassign int
	// QuarantineAfter is the number of consecutive worker-reported
	// evaluation failures after which a worker is quarantined: it keeps
	// heartbeating but is never assigned another shard until an
	// operator kills or restarts it (default 3). A successful report
	// resets the count.
	QuarantineAfter int
	// Clock overrides the time source for heartbeat/lease bookkeeping
	// (tests drive expiry deterministically with a fake clock). Nil
	// means time.Now. Lease expiry compares only timestamps taken from
	// this clock — worker-side clocks are never consulted, so clock
	// skew between daemon and workers cannot break or extend a lease.
	Clock func() time.Time
}

// Affinity scheduling bounds. A worker looks at most affinityWindow
// deep into the queue for a unit whose fork site it owns, and the
// queue head can be bypassed by such picks at most starveSkips times
// before it must be taken regardless — affinity is a preference, never
// a starvation source.
const (
	affinityWindow = 16
	starveSkips    = 8
	// affinityGrace is how long a queued unit whose fork site belongs to
	// another worker is reserved for that owner. While the grace runs,
	// non-owners with nothing else to take decline instead of stealing —
	// the owner's parked claim collects the unit within microseconds, so
	// the donor snapshot amortizes instead of re-running on a stranger.
	// Once the grace expires (owner saturated, slow, or gone quiet) any
	// worker takes the unit: affinity is a preference, never a fence.
	affinityGrace = 50 * time.Millisecond
	// affinityCap bounds the site-ownership table; past it the table
	// resets (ownership is a routing hint — losing it costs at most one
	// redundant donor run per worker, never correctness).
	affinityCap = 8192
)

// WorkerState is a worker's position in its lifecycle.
type WorkerState string

const (
	WorkerIdle WorkerState = "idle"
	WorkerBusy WorkerState = "busy"
	WorkerDead WorkerState = "dead"
	// WorkerQuarantined: too many consecutive failures; the worker is
	// drained — it keeps heartbeating and stays visible in the
	// registry, but no shard is ever assigned to it again.
	WorkerQuarantined WorkerState = "quarantined"
)

// WorkerInfo is a registry snapshot of one worker.
type WorkerInfo struct {
	ID        string      `json:"id"`
	Name      string      `json:"name,omitempty"` // self-reported name ("local" for the daemon's own)
	State     WorkerState `json:"state"`
	Parallel  int         `json:"parallel,omitempty"` // declared concurrent evaluations
	Done      int         `json:"done"`               // units completed and accepted
	Discarded int         `json:"discarded"`          // results rejected (lease lost or duplicated)
	Fails     int         `json:"fails,omitempty"`    // consecutive reported failures
	// InFlight counts leases currently held (assigned, not yet
	// reported); Evaluating is the worker's own last-heartbeated count
	// of evaluations running right now.
	InFlight   int `json:"in_flight"`
	Evaluating int `json:"evaluating,omitempty"`
	// UnitsPerSec is accepted units over the span from the worker's
	// first lease to its latest delivery; MeanUnitMS is the mean
	// worker-measured evaluation wall per accepted unit.
	UnitsPerSec float64   `json:"units_per_sec,omitempty"`
	MeanUnitMS  float64   `json:"mean_unit_ms,omitempty"`
	Job         string    `json:"job,omitempty"`
	Unit        string    `json:"unit,omitempty"`
	LastBeat    time.Time `json:"last_beat"`
}

// Pool is the worker registry plus shard scheduler.
type Pool struct {
	opts Options

	mu        sync.Mutex
	waitCh    chan struct{} // closed+replaced on every scheduling event
	workers   map[string]*worker
	jobs      map[string]*JobHandle // registered jobs whose context is live
	queue     []*shard              // FIFO of unleased shards
	aff       map[string]string     // fork-site key → owning worker ID
	seq       int                   // worker IDs
	epochs    int                   // lease epochs: unique pool-wide, so never reused by a unit key
	fallbacks int
	draining  bool // no new leases (graceful shutdown)
	closed    bool
}

type worker struct {
	id       string
	name     string
	state    WorkerState
	parallel int // declared concurrent evaluations
	// asked is the lease count the worker's last claim asked to reach
	// (held + max, capped at its lease capacity): while it holds fewer,
	// it has a claim parked or about to be, so affinity may wait for it.
	asked int

	done       int
	discarded  int
	fails      int
	evaluating int // last heartbeat-reported in-flight evaluations

	leases map[string]*shard // leaseKey → shard currently held

	firstLease time.Time
	lastDone   time.Time
	wallSum    time.Duration

	lastBeat time.Time
}

// shard is one leased evaluation unit.
type shard struct {
	job  *JobHandle
	unit search.EvalUnit
	site string // fork-affinity key (job + fork site)

	owner     string // worker holding the lease ("" = queued)
	epoch     int    // the current lease's epoch, fresh at every assignment
	reassigns int
	skips     int       // times bypassed at the queue head by affinity picks
	queued    time.Time // last (re-)enqueue, bounds the affinity-decline grace
	delivered bool
	done      chan shardResult // buffered 1
}

type shardResult struct {
	v   search.Verdict
	err error
}

// New builds an empty pool; workers join through Join (usually via a
// remote.Transport: Direct in process, the HTTP handlers remotely).
func New(opts Options) *Pool {
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = 500 * time.Millisecond
	}
	if opts.Expiry <= 0 {
		// Generous by design: local workers' heartbeats share the
		// scheduler with CPU-saturating evaluation runs, so a tight
		// expiry would declare healthy-but-starved workers dead under
		// full load.
		opts.Expiry = 8 * opts.Heartbeat
	}
	if opts.MaxReassign <= 0 {
		opts.MaxReassign = 3
	}
	if opts.QuarantineAfter <= 0 {
		opts.QuarantineAfter = 3
	}
	p := &Pool{
		opts:    opts,
		workers: make(map[string]*worker),
		jobs:    make(map[string]*JobHandle),
		waitCh:  make(chan struct{}),
		aff:     make(map[string]string),
	}
	go p.monitor()
	return p
}

// now is the pool's only time source for heartbeat/lease bookkeeping.
func (p *Pool) now() time.Time {
	if p.opts.Clock != nil {
		return p.opts.Clock()
	}
	return time.Now()
}

// wakeLocked signals every scheduling waiter — parked claims and Drain
// — through the wait channel. Callers hold p.mu.
func (p *Pool) wakeLocked() {
	close(p.waitCh)
	p.waitCh = make(chan struct{})
}

// leaseKey identifies one held lease within a worker. The epoch keeps
// two units of a job that share a unit key apart.
func leaseKey(jobID, unitKey string, epoch int) string {
	return jobID + "\x00" + unitKey + "\x00" + strconv.Itoa(epoch)
}

// siteKey derives a shard's fork-affinity key: the job plus the unit's
// first single site. Units created by the search carry the site as a
// hint; for any that don't, it is re-derived from the unit key, whose
// byte image is the little-endian form of the sorted address set.
func siteKey(jobID string, u search.EvalUnit) string {
	site := u.ForkSite
	if site == 0 && len(u.Key) >= 8 && !u.Final {
		site = binary.LittleEndian.Uint64([]byte(u.Key[:8]))
	}
	return jobID + "\x00" + strconv.FormatUint(site, 16)
}

// Kill reports a worker dead: its leases are broken and the shards
// requeued for other workers, any verdict the doomed evaluations still
// produce is discarded, and its next call fails with ErrUnknownWorker
// — on which the worker runtime re-registers under a fresh identity.
func (p *Pool) Kill(id string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	w, ok := p.workers[id]
	if !ok {
		return fmt.Errorf("fleet: no worker %s", id)
	}
	p.markDeadLocked(w)
	return nil
}

// Workers snapshots the registry; order is not guaranteed — callers
// sort.
func (p *Pool) Workers() []WorkerInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]WorkerInfo, 0, len(p.workers))
	for _, w := range p.workers {
		wi := WorkerInfo{
			ID: w.id, Name: w.name, State: w.state,
			Parallel: w.parallel, Done: w.done, Discarded: w.discarded,
			Fails: w.fails, InFlight: len(w.leases), Evaluating: w.evaluating,
			LastBeat: w.lastBeat,
		}
		if w.done > 0 {
			wi.MeanUnitMS = float64(w.wallSum) / float64(w.done) / float64(time.Millisecond)
			if span := w.lastDone.Sub(w.firstLease); span > 0 {
				wi.UnitsPerSec = float64(w.done) / span.Seconds()
			}
		}
		// With several leases held, show the lexicographically first so
		// the snapshot is stable between calls.
		min := ""
		for k, sh := range w.leases {
			if min == "" || k < min {
				min = k
				wi.Job = sh.job.id
				wi.Unit = sh.unit.Label
			}
		}
		out = append(out, wi)
	}
	return out
}

// Alive counts workers that can still take shards (not dead, not
// quarantined).
func (p *Pool) Alive() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.assignableLocked()
}

// Fallbacks counts units that degraded to in-process evaluation
// because no assignable worker remained.
func (p *Pool) Fallbacks() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fallbacks
}

// QueueLen is the number of shards awaiting a lease.
func (p *Pool) QueueLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// Close shuts the pool: queued shards fail, the monitor stops, and
// claims answer with an error.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	for _, sh := range p.queue {
		sh.delivered = true
		sh.done <- shardResult{err: fmt.Errorf("fleet: pool closed")}
	}
	p.queue = nil
	p.wakeLocked()
}

// Drain stops granting leases (graceful shutdown: units enqueued from
// now on evaluate in-process, like a fleet with no assignable worker)
// and waits up to timeout for every held lease to deliver, so the
// verdicts reach their journals. It returns how many leases remain;
// those settle interrupted once their jobs' contexts are cancelled.
func (p *Pool) Drain(timeout time.Duration) int {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.draining = true
	for {
		held := 0
		for _, w := range p.workers {
			held += len(w.leases)
		}
		if held == 0 {
			return 0
		}
		waitCh := p.waitCh
		p.mu.Unlock()
		select {
		case <-waitCh:
			p.mu.Lock()
		case <-deadline.C:
			p.mu.Lock()
			return held
		}
	}
}

// JobHandle is a registered job's face to the pool: it implements
// search.UnitEvaluator, so a search hands units straight to the fleet
// via Options.Units.
type JobHandle struct {
	pool *Pool
	id   string
	ev   Evaluator
	ctx  context.Context
}

// Register binds a job ID to the evaluator its units run on (one
// shared UnitRunner per job — engines are concurrency-safe) for as long
// as ctx lives. Local workers evaluate on that same evaluator, and it
// doubles as the in-process fallback when no assignable worker remains.
// When ctx ends the job leaves the pool: every unit of it still queued
// or leased settles interrupted, so a late report finds no lease and is
// discarded, and later units return interrupted at once.
func (p *Pool) Register(ctx context.Context, jobID string, ev Evaluator) *JobHandle {
	j := &JobHandle{pool: p, id: jobID, ev: ev, ctx: ctx}
	p.mu.Lock()
	p.jobs[jobID] = j
	p.mu.Unlock()
	context.AfterFunc(ctx, j.withdraw)
	return j
}

// withdraw pulls a cancelled job out of the pool; see Register.
func (j *JobHandle) withdraw() {
	p := j.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.jobs[j.id] == j {
		delete(p.jobs, j.id)
	}
	interrupt := func(sh *shard) {
		sh.delivered = true
		sh.owner = ""
		sh.done <- shardResult{v: search.Verdict{Interrupted: true}}
	}
	queue := p.queue[:0]
	for _, sh := range p.queue {
		if sh.job == j {
			interrupt(sh)
		} else {
			queue = append(queue, sh)
		}
	}
	clear(p.queue[len(queue):])
	p.queue = queue
	for _, w := range p.workers {
		for _, sh := range w.leases {
			if sh.job == j {
				p.breakLeaseLocked(w, sh)
				interrupt(sh)
			}
		}
	}
	p.wakeLocked()
}

// evaluator returns the evaluator of a registered, still-running job.
func (p *Pool) evaluator(jobID string) (Evaluator, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.jobs[jobID]
	if !ok {
		return nil, fmt.Errorf("fleet: job %s is not running", jobID)
	}
	return j.ev, nil
}

// EvaluateUnit enqueues the unit as a shard and blocks until a worker
// delivers its verdict (or the pool exhausts the reassignment budget).
// A unit that finds no assignable worker runs in-process instead, and
// one whose job context has ended returns interrupted — never an
// error.
func (j *JobHandle) EvaluateUnit(u search.EvalUnit) (search.Verdict, error) {
	p := j.pool
	p.mu.Lock()
	switch {
	case p.closed:
		p.mu.Unlock()
		return search.Verdict{}, fmt.Errorf("fleet: pool closed")
	case j.ctx.Err() != nil:
		p.mu.Unlock()
		return search.Verdict{Interrupted: true}, nil
	case p.assignableLocked() == 0:
		p.fallbacks++
		p.mu.Unlock()
		return j.ev.Evaluate(u)
	}
	sh := &shard{job: j, unit: u, site: siteKey(j.id, u), queued: p.now(), done: make(chan shardResult, 1)}
	p.queue = append(p.queue, sh)
	p.wakeLocked()
	p.mu.Unlock()
	r := <-sh.done
	return r.v, r.err
}

// takeLocked removes and returns the next shard for w, preferring fork
// affinity inside a bounded window: first a shard whose site w already
// owns, then a shard whose site has no live owner (w becomes its
// owner), and otherwise the queue head — which can be bypassed at most
// starveSkips times before it is taken unconditionally. Returns nil
// when the queue is empty. Callers hold p.mu.
func (p *Pool) takeLocked(w *worker) *shard {
	if len(p.queue) == 0 {
		return nil
	}
	head := p.queue[0]
	pick := 0
	if head.skips < starveSkips {
		limit := len(p.queue)
		if limit > affinityWindow {
			limit = affinityWindow
		}
		fresh := -1
		mine := -1
		for i := 0; i < limit; i++ {
			owner, owned := p.aff[p.queue[i].site]
			if owned && owner == w.id {
				mine = i
				break
			}
			if fresh < 0 && (!owned || !p.ownerAssignableLocked(owner)) {
				fresh = i
			}
		}
		switch {
		case mine >= 0:
			pick = mine
		case fresh > 0:
			// Bypass the head for a fresh site only when the head belongs
			// to another live worker that will come back for it; an
			// unowned head is taken directly (fresh == 0 lands here too).
			if owner, owned := p.aff[head.site]; owned && owner != w.id && p.ownerAssignableLocked(owner) {
				pick = fresh
			}
		case fresh < 0:
			// Everything in the window belongs to other workers. Taking
			// the head now would strand its donor snapshot — the thief
			// re-runs the donor the owner already paid for — so while the
			// unit is inside its grace and the owner is positioned to
			// collect it (a claim parked or about to be), decline and let
			// the owner have it. The
			// grace is a hard bound: past it the unit goes to whoever
			// asks, because a stalled owner must never stall the queue.
			if owner, owned := p.aff[head.site]; owned && owner != w.id &&
				p.ownerWillClaimLocked(owner) && p.now().Sub(head.queued) < affinityGrace {
				return nil
			}
		}
	}
	sh := p.queue[pick]
	if pick > 0 {
		head.skips++
		p.queue = append(p.queue[:pick], p.queue[pick+1:]...)
	} else {
		p.queue = p.queue[1:]
	}
	return sh
}

// ownerWillClaimLocked reports whether the affinity owner is in a
// position to collect more queued work promptly: it holds fewer leases
// than its last claim asked for, so a claim of its is parked at the
// pool or about to be. An owner holding everything it asked for is
// busy evaluating — waiting on it would idle the queue, so a decline is
// only worth it when this returns true. Callers hold p.mu.
func (p *Pool) ownerWillClaimLocked(id string) bool {
	w, ok := p.workers[id]
	return ok && p.ownerAssignableLocked(id) && len(w.leases) < w.asked
}

// ownerAssignableLocked reports whether the worker behind an affinity
// entry can still be assigned shards; callers hold p.mu.
func (p *Pool) ownerAssignableLocked(id string) bool {
	w, ok := p.workers[id]
	return ok && assignable(w) && !p.draining
}

// assignable reports whether a worker may take leases at all.
func assignable(w *worker) bool {
	return w.state != WorkerDead && w.state != WorkerQuarantined
}

// assignLocked leases a shard (already removed from the queue) to w
// and records fork-site ownership; callers hold p.mu.
func (p *Pool) assignLocked(w *worker, sh *shard) {
	p.epochs++
	sh.owner = w.id
	sh.epoch = p.epochs
	sh.skips = 0
	w.leases[leaseKey(sh.job.id, sh.unit.Key, sh.epoch)] = sh
	w.state = WorkerBusy
	if w.firstLease.IsZero() {
		w.firstLease = p.now()
	}
	if len(p.aff) >= affinityCap {
		p.aff = make(map[string]string)
	}
	if cur, ok := p.aff[sh.site]; !ok || !p.ownerAssignableLocked(cur) {
		p.aff[sh.site] = w.id
	}
}

// deliverLocked completes an accepted delivery; callers hold p.mu,
// have verified the lease, and wake the waiters.
func (p *Pool) deliverLocked(w *worker, sh *shard, v search.Verdict) {
	sh.delivered = true
	sh.owner = ""
	p.breakLeaseLocked(w, sh)
	w.done++
	w.fails = 0
	w.wallSum += v.Wall
	w.lastDone = p.now()
	sh.done <- shardResult{v: v}
}

// breakLeaseLocked detaches a shard from its holder without settling
// it; callers hold p.mu and requeue or fail the shard themselves.
func (p *Pool) breakLeaseLocked(w *worker, sh *shard) {
	delete(w.leases, leaseKey(sh.job.id, sh.unit.Key, sh.epoch))
	if w.state == WorkerBusy && len(w.leases) == 0 {
		w.state = WorkerIdle
	}
}

// monitor scans for workers whose heartbeat went silent (crashed,
// partitioned, or wedged) and reassigns their shards.
func (p *Pool) monitor() {
	t := time.NewTicker(p.opts.Heartbeat)
	defer t.Stop()
	for range t.C {
		if !p.sweep() {
			return
		}
	}
}

// sweep runs one monitor pass: every worker silent past Expiry on the
// pool's clock is declared dead. Returns false once the pool is
// closed. Exposed to in-package tests so a fake clock can drive expiry
// deterministically.
func (p *Pool) sweep() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	now := p.now()
	for _, w := range p.workers {
		if w.state != WorkerDead && now.Sub(w.lastBeat) > p.opts.Expiry {
			p.markDeadLocked(w)
		}
	}
	return true
}

// markDeadLocked retires a worker, breaks all its leases and clears
// its fork-site ownerships; callers hold p.mu.
func (p *Pool) markDeadLocked(w *worker) {
	if w.state == WorkerDead {
		return
	}
	w.state = WorkerDead
	p.disownSitesLocked(w)
	for k, sh := range w.leases {
		delete(w.leases, k)
		if sh.owner == w.id {
			p.requeueLocked(sh)
		}
	}
	p.sweepUnassignableLocked()
	p.wakeLocked()
}

// disownSitesLocked removes every fork-site ownership held by w, so
// its sites route fresh; callers hold p.mu.
func (p *Pool) disownSitesLocked(w *worker) {
	for site, owner := range p.aff {
		if owner == w.id {
			delete(p.aff, site)
		}
	}
}

// sweepUnassignableLocked moves every queued shard to in-process
// fallback once no worker can take a lease — they would otherwise wait
// forever. Callers hold p.mu.
func (p *Pool) sweepUnassignableLocked() {
	if p.assignableLocked() > 0 {
		return
	}
	for _, sh := range p.queue {
		p.fallbacks++
		go p.fallback(sh)
	}
	p.queue = nil
}

// fallback evaluates a shard in-process on the job's own evaluator;
// runs outside p.mu.
func (p *Pool) fallback(sh *shard) {
	v, err := sh.job.ev.Evaluate(sh.unit)
	p.mu.Lock()
	defer p.mu.Unlock()
	if sh.delivered {
		return
	}
	sh.delivered = true
	sh.done <- shardResult{v: v, err: err}
}

// requeueLocked puts a broken-lease shard back at the head of the
// queue, fails it when its reassignment budget is spent, or falls back
// in-process when no worker is left to take it.
func (p *Pool) requeueLocked(sh *shard) {
	sh.owner = ""
	sh.reassigns++
	if sh.delivered {
		return
	}
	if sh.reassigns > p.opts.MaxReassign {
		sh.delivered = true
		sh.done <- shardResult{err: fmt.Errorf("fleet: unit %q reassigned %d times, giving up", sh.unit.Label, sh.reassigns)}
		return
	}
	if p.assignableLocked() == 0 {
		p.fallbacks++
		go p.fallback(sh)
		return
	}
	sh.queued = p.now()
	p.queue = append([]*shard{sh}, p.queue...)
	p.wakeLocked()
}

// assignableLocked counts workers a shard could be leased to (none
// while draining); callers hold p.mu.
func (p *Pool) assignableLocked() int {
	if p.draining {
		return 0
	}
	n := 0
	for _, w := range p.workers {
		if assignable(w) {
			n++
		}
	}
	return n
}
