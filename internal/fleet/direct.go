package fleet

import (
	"context"
	"encoding/hex"
	"time"

	"fpmix/internal/remote"
)

// Direct is the in-memory remote.Transport over a pool. The daemon's
// local workers run remote.Serve over it, and the HTTP fleet handlers
// call it after decoding JSON, so the conversion between the protocol's
// wire types and the pool's (hex-armored unit keys, report batches)
// exists in this one place. It caches nothing: Evaluator hands out the
// job's registered evaluator for exactly as long as the job runs.
type Direct struct{ p *Pool }

// Direct returns the pool's in-memory transport.
func (p *Pool) Direct() Direct { return Direct{p} }

// Register joins the pool.
func (d Direct) Register(_ context.Context, name string, parallel int) (remote.RegisterResponse, error) {
	id, hb, exp := d.p.Join(name, parallel)
	return remote.RegisterResponse{ID: id, HeartbeatMS: hb.Milliseconds(), ExpiryMS: exp.Milliseconds()}, nil
}

// Claim long-polls the pool for up to max new leases, re-delivering
// the held leases that the held epochs lack.
func (d Direct) Claim(ctx context.Context, worker string, wait time.Duration, max int, held []int) (remote.ClaimResponse, error) {
	leases, state, err := d.p.Claim(ctx, worker, wait, max, held)
	if err != nil {
		return remote.ClaimResponse{}, err
	}
	resp := remote.ClaimResponse{State: string(state)}
	for _, l := range leases {
		resp.Leases = append(resp.Leases, remote.Lease{Job: l.Job, Epoch: l.Epoch, Unit: remote.ToWire(l.Unit)})
	}
	return resp, nil
}

// Heartbeat refreshes the worker's lease clock.
func (d Direct) Heartbeat(_ context.Context, worker string, inflight int) (remote.HeartbeatResponse, error) {
	state, err := d.p.Heartbeat(worker, inflight)
	return remote.HeartbeatResponse{State: string(state)}, err
}

// Report delivers a batch of unit outcomes.
func (d Direct) Report(_ context.Context, req remote.ReportRequest) ([]bool, error) {
	reports := make([]Report, len(req.Reports))
	for i, ur := range req.Reports {
		key, err := hex.DecodeString(ur.Key)
		if err != nil {
			// An undecodable key can never match a lease; judge the rest
			// of the batch normally and let this entry settle unaccepted
			// instead of failing its batchmates' deliveries.
			key = []byte("\x00undecodable:" + ur.Key)
		}
		reports[i] = Report{Job: ur.Job, Key: string(key), Epoch: ur.Epoch, Verdict: ur.Verdict, Err: ur.Error}
	}
	return d.p.ReportBatch(req.Worker, reports)
}

// Evaluator returns the evaluator the job registered with.
func (d Direct) Evaluator(_ context.Context, job string) (remote.Evaluator, error) {
	return d.p.evaluator(job)
}
