package fleet

import (
	"context"
	"fmt"
	"sort"
	"time"

	"fpmix/internal/remote"
	"fpmix/internal/search"
)

// ErrUnknownWorker reports a worker ID the registry does not know or
// has already retired. It wraps remote.ErrGone — the wire maps it to
// 410 Gone — and a worker receiving it re-registers under a fresh
// identity (the standard recovery after a daemon restart or a kill).
var ErrUnknownWorker = fmt.Errorf("fleet: unknown or retired worker: %w", remote.ErrGone)

// Lease is one unit leased to a worker. The (owner, epoch) pair is the
// idempotency token: the pool accepts exactly one report carrying it,
// so a unit re-delivered after a partition or a duplicated report can
// never double-count.
type Lease struct {
	Job   string
	Unit  search.EvalUnit
	Epoch int
}

// Report is one unit's outcome inside a report batch.
type Report struct {
	Job     string
	Key     string
	Epoch   int
	Verdict search.Verdict
	Err     string
}

// Join registers a worker under the given self-reported name and
// declared evaluation parallelism, returning its assigned ID plus the
// heartbeat interval and expiry the worker must respect. Parallelism
// sizes the worker's lease capacity — how many units Claim may leave in
// its hands at once. No goroutines are attached: the worker drives
// itself through Claim/ReportBatch and keeps its registration alive
// through Heartbeat; silence past Expiry on the pool's clock retires
// it.
func (p *Pool) Join(name string, parallel int) (id string, heartbeat, expiry time.Duration) {
	if parallel <= 0 {
		parallel = 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seq++
	w := &worker{
		id:       fmt.Sprintf("w%d", p.seq),
		name:     name,
		state:    WorkerIdle,
		parallel: parallel,
		leases:   make(map[string]*shard),
		lastBeat: p.now(),
	}
	p.workers[w.id] = w
	return w.id, p.opts.Heartbeat, p.opts.Expiry
}

// Heartbeat refreshes a worker's lease clock (stamped with the pool's
// own clock — the worker's clock never enters expiry decisions),
// records its self-reported count of evaluations running right now so
// fleet saturation is observable without profiling, and returns its
// state, so a quarantined worker learns to stop claiming.
func (p *Pool) Heartbeat(id string, inflight int) (WorkerState, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w, ok := p.workers[id]
	if !ok || w.state == WorkerDead {
		return WorkerDead, ErrUnknownWorker
	}
	w.lastBeat = p.now()
	w.evaluating = inflight
	return w.state, nil
}

// leaseCapLocked is how many units a worker may hold at once:
// one batch evaluating plus one batch prefetched, sized to its
// declared parallelism, never below 4 so single-threaded workers still
// amortize RPCs. Callers hold p.mu.
func leaseCapLocked(w *worker) int {
	c := 4 * w.parallel
	if c < 4 {
		c = 4
	}
	return c
}

// Claim leases up to max queued units to the worker, long-polling up
// to wait or until ctx ends. The response always re-delivers every
// lease the worker already holds (same epochs — the idempotency tokens
// are unchanged, so whichever delivery the worker acts on, only one
// report per unit is accepted) before topping up from the queue head,
// in FIFO order, bounded by the worker's lease capacity. An empty slice with state
// WorkerIdle means no work was available; state WorkerQuarantined tells
// the worker to drain.
func (p *Pool) Claim(ctx context.Context, id string, wait time.Duration, max int) ([]Lease, WorkerState, error) {
	if max <= 0 {
		max = 1
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		p.mu.Lock()
		w, ok := p.workers[id]
		if !ok || w.state == WorkerDead {
			p.mu.Unlock()
			return nil, WorkerDead, ErrUnknownWorker
		}
		if p.closed {
			p.mu.Unlock()
			return nil, WorkerDead, fmt.Errorf("fleet: pool closed")
		}
		w.lastBeat = p.now() // a claim is as good as a heartbeat
		if w.state == WorkerQuarantined {
			p.mu.Unlock()
			return nil, WorkerQuarantined, nil
		}
		limit := leaseCapLocked(w)
		leases := p.heldLeasesLocked(w)
		for granted := 0; !p.draining && granted < max && len(w.leases) < limit && len(p.queue) > 0; granted++ {
			sh := p.queue[0]
			p.queue = p.queue[1:]
			p.assignLocked(w, sh)
			leases = append(leases, Lease{Job: sh.job.id, Unit: sh.unit, Epoch: sh.epoch})
			if sh.unit.Final {
				// The final union lowers every surviving single at once —
				// by far the heaviest unit of its search. Close the batch
				// behind it so lighter units stay available to the rest of
				// the fleet.
				break
			}
		}
		if len(leases) > 0 {
			state := w.state
			p.mu.Unlock()
			return leases, state, nil
		}
		waitCh := p.waitCh
		p.mu.Unlock()
		select {
		case <-waitCh:
		case <-timer.C:
			return nil, WorkerIdle, nil
		case <-ctx.Done():
			return nil, WorkerIdle, ctx.Err()
		}
	}
}

// heldLeasesLocked snapshots a worker's held leases in stable (job,
// key) order; callers hold p.mu.
func (p *Pool) heldLeasesLocked(w *worker) []Lease {
	if len(w.leases) == 0 {
		return nil
	}
	keys := make([]string, 0, len(w.leases))
	for k := range w.leases {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	leases := make([]Lease, 0, len(keys))
	for _, k := range keys {
		sh := w.leases[k]
		leases = append(leases, Lease{Job: sh.job.id, Unit: sh.unit, Epoch: sh.epoch})
	}
	return leases
}

// ReportBatch delivers a batch of worker outcomes. Each entry is
// judged independently against the full idempotency token — the worker
// holds the unit's lease, same job, same unit key, same epoch, not yet
// delivered; anything else (a duplicated report RPC, a late report
// after the lease broke and the shard was reassigned) answers
// accepted=false for that entry alone and is counted as discarded, so
// re-delivered units never double-count and a duplicate in one slot
// cannot poison its batchmates.
//
// A worker-side evaluation error does not fail the job: the shard
// requeues for another worker (bounded by MaxReassign) and the failure
// counts toward the worker's quarantine threshold; QuarantineAfter
// consecutive failures drain the worker — which also breaks its
// remaining leases, so later entries of the same batch settle as
// discarded duplicates and their units re-evaluate elsewhere.
func (p *Pool) ReportBatch(id string, reports []Report) ([]bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w, ok := p.workers[id]
	if !ok {
		return nil, ErrUnknownWorker
	}
	if w.state == WorkerDead {
		w.discarded += len(reports)
		return nil, ErrUnknownWorker
	}
	defer p.wakeLocked()
	w.lastBeat = p.now()
	accepted := make([]bool, len(reports))
	for i, r := range reports {
		sh := w.leases[leaseKey(r.Job, r.Key, r.Epoch)]
		if sh == nil || sh.delivered {
			w.discarded++
			continue
		}
		if r.Err != "" || r.Verdict.Interrupted {
			// The worker could not produce a verdict: its environment broke
			// (Err — counts toward quarantine) or it is shutting down
			// gracefully and its local context interrupted the run (no
			// strike — a drain is not a fault). Either way the verdict must
			// not reach the search: an Interrupted verdict delivered to a
			// live coordinator would silently drop the piece from the final.
			// Break the lease and requeue the shard for someone else.
			p.breakLeaseLocked(w, sh)
			if r.Err != "" {
				w.fails++
				if w.fails >= p.opts.QuarantineAfter {
					p.quarantineLocked(w)
				}
			}
			p.requeueLocked(sh)
			accepted[i] = true
			continue
		}
		p.deliverLocked(w, sh, r.Verdict)
		accepted[i] = true
	}
	return accepted, nil
}

// quarantineLocked drains a worker: no further shard is ever assigned
// to it, and its remaining leases break and requeue. It stays
// registered (and heartbeating) so the registry shows why it was
// benched. Callers hold p.mu.
func (p *Pool) quarantineLocked(w *worker) {
	if !assignable(w) {
		return
	}
	w.state = WorkerQuarantined
	for k, sh := range w.leases {
		delete(w.leases, k)
		if sh.owner == w.id {
			p.requeueLocked(sh)
		}
	}
	p.sweepUnassignableLocked()
	p.wakeLocked()
}
