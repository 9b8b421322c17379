package fleet

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"fpmix/internal/search"
)

// ErrUnknownWorker reports a worker ID the registry does not know or
// has already retired — the wire maps it to 410 Gone, and a worker
// receiving it re-registers under a fresh identity (the standard
// recovery after a daemon restart or an operator kill).
var ErrUnknownWorker = errors.New("fleet: unknown or retired worker")

// RemoteLease is one unit leased to a remote worker. The (owner,
// epoch) pair is the idempotency token: the pool accepts exactly one
// report carrying it, so a unit re-delivered after a partition or a
// duplicated report RPC can never double-count.
type RemoteLease struct {
	Job   string
	Unit  search.EvalUnit
	Epoch int
}

// RemoteReport is one unit's outcome inside a report batch.
type RemoteReport struct {
	Job     string
	Key     string
	Epoch   int
	Verdict search.Verdict
	Err     string
}

// AddRemote registers an out-of-process worker under the given
// self-reported name and declared evaluation parallelism, returning
// its assigned ID plus the heartbeat interval and expiry the worker
// must respect. Parallelism sizes the worker's lease capacity — how
// many units Claim may leave in its hands at once. No goroutines are
// attached: the worker drives itself through Claim/Report and keeps
// its registration alive through Heartbeat; silence past Expiry on the
// pool's clock retires it exactly like an in-process death.
func (p *Pool) AddRemote(name string, parallel int) (id string, heartbeat, expiry time.Duration) {
	if parallel <= 0 {
		parallel = 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rseq++
	w := &worker{
		id:       fmt.Sprintf("r%d", p.rseq),
		name:     name,
		remote:   true,
		state:    WorkerIdle,
		parallel: parallel,
		leases:   make(map[string]*shard),
		lastBeat: p.now(),
	}
	p.workers[w.id] = w
	return w.id, p.opts.Heartbeat, p.opts.Expiry
}

// Heartbeat refreshes a remote worker's lease clock (stamped with the
// pool's own clock — the worker's clock never enters expiry decisions)
// and returns its current state, so a quarantined worker learns to
// stop claiming.
func (p *Pool) Heartbeat(id string) (WorkerState, error) {
	return p.HeartbeatLoad(id, -1)
}

// HeartbeatLoad is Heartbeat carrying the worker's self-reported count
// of evaluations running right now (negative leaves the last report
// unchanged); the registry surfaces it so fleet saturation is
// observable without profiling.
func (p *Pool) HeartbeatLoad(id string, inflight int) (WorkerState, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w, ok := p.workers[id]
	if !ok || w.dead {
		return WorkerDead, ErrUnknownWorker
	}
	w.lastBeat = p.now()
	if inflight >= 0 {
		w.evaluating = inflight
	}
	return w.state, nil
}

// leaseCapLocked is how many units a remote worker may hold at once:
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

// Claim leases up to max queued units to the remote worker,
// long-polling up to wait. The response always re-delivers every lease
// the worker already holds (same epochs — the idempotency tokens are
// unchanged, so whichever delivery the worker acts on, only one report
// per unit is accepted) before topping up from the queue, bounded by
// the worker's lease capacity. An empty slice with state WorkerIdle
// means no work was available; state WorkerQuarantined tells the
// worker to drain.
func (p *Pool) Claim(id string, wait time.Duration, max int) ([]RemoteLease, WorkerState, error) {
	if max <= 0 {
		max = 1
	}
	deadline := time.Now().Add(wait)
	for {
		p.mu.Lock()
		w, ok := p.workers[id]
		if !ok || w.dead {
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
		leases := p.heldLeasesLocked(w)
		if !p.draining && !p.interrupting {
			limit := leaseCapLocked(w)
			for granted := 0; granted < max && len(w.leases) < limit; granted++ {
				sh := p.takeLocked(w)
				if sh == nil {
					break
				}
				p.assignLocked(w, sh)
				leases = append(leases, RemoteLease{Job: sh.job.id, Unit: sh.unit, Epoch: sh.epoch})
				if sh.unit.Final {
					// The final union lowers every surviving single at once —
					// by far the heaviest unit of its search. Close the batch
					// behind it so lighter units stay available to the rest of
					// the fleet.
					break
				}
			}
		}
		if len(leases) > 0 {
			state := w.state
			p.mu.Unlock()
			return leases, state, nil
		}
		waitCh := p.waitCh
		p.mu.Unlock()
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, WorkerIdle, nil
		}
		t := time.NewTimer(remain)
		select {
		case <-waitCh:
		case <-t.C:
		}
		t.Stop()
	}
}

// heldLeasesLocked snapshots a worker's held leases in stable (job,
// key) order; callers hold p.mu.
func (p *Pool) heldLeasesLocked(w *worker) []RemoteLease {
	if len(w.leases) == 0 {
		return nil
	}
	keys := make([]string, 0, len(w.leases))
	for k := range w.leases {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	leases := make([]RemoteLease, 0, len(keys))
	for _, k := range keys {
		sh := w.leases[k]
		leases = append(leases, RemoteLease{Job: sh.job.id, Unit: sh.unit, Epoch: sh.epoch})
	}
	return leases
}

// Report delivers one remote verdict (or worker-side evaluation
// error); it is ReportBatch for a single unit.
func (p *Pool) Report(id, jobID, key string, epoch int, v search.Verdict, evalErr string) (accepted bool, err error) {
	acc, err := p.ReportBatch(id, []RemoteReport{{Job: jobID, Key: key, Epoch: epoch, Verdict: v, Err: evalErr}})
	if err != nil {
		return false, err
	}
	return acc[0], nil
}

// ReportBatch delivers a batch of remote outcomes. Each entry is
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
func (p *Pool) ReportBatch(id string, reports []RemoteReport) ([]bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w, ok := p.workers[id]
	if !ok {
		return nil, ErrUnknownWorker
	}
	if w.dead {
		w.discarded += len(reports)
		return nil, ErrUnknownWorker
	}
	w.lastBeat = p.now()
	accepted := make([]bool, len(reports))
	for i, r := range reports {
		sh := w.leases[leaseKey(r.Job, r.Key)]
		if sh == nil || sh.delivered || sh.owner != w.id || sh.epoch != r.Epoch {
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
		p.deliverLocked(w, sh, r.Verdict, nil)
		accepted[i] = true
	}
	return accepted, nil
}

// quarantineLocked drains a worker: no further shard is ever assigned
// to it, its remaining leases break and requeue, and its fork-site
// ownerships clear so siblings route to live workers. It stays
// registered (and heartbeating) so the registry shows why it was
// benched. Callers hold p.mu.
func (p *Pool) quarantineLocked(w *worker) {
	if w.dead || w.state == WorkerQuarantined {
		return
	}
	w.state = WorkerQuarantined
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
