package fleet

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"fpmix/internal/remote"
	"fpmix/internal/search"
)

// FuzzClaimHeld feeds arbitrary claim bodies to a pool in which worker
// w1 holds leases 1 and 2 and worker w2 holds lease 3, with nothing
// queued. A body that decodes is applied with wait 0, whatever its held
// list: unknown, duplicate, negative and the other worker's epochs
// included. The response must never carry a lease twice, must carry
// only the claimer's leases, must carry every lease the claimer holds
// that the list lacks, and none that it lists. The committed corpus
// covers a full list, no list, an empty list, a list of the other
// worker's epochs, a list mixing duplicate, negative and unknown
// epochs, and an unknown worker.
func FuzzClaimHeld(f *testing.F) {
	p := New(Options{Heartbeat: time.Hour, Expiry: 1000 * time.Hour})
	f.Cleanup(p.Close)
	d := p.Direct()
	j := p.Register(context.Background(), "j0001", &fakeEval{})
	for _, k := range []string{"k1", "k2", "k3"} {
		p.queue = append(p.queue, &shard{job: j, unit: search.EvalUnit{Key: k, Label: k}, done: make(chan shardResult, 1)})
	}
	assigned := make(map[string]map[int]remote.Lease) // worker → epoch → lease
	for _, max := range []int{2, 1} {
		reg, _ := d.Register(context.Background(), "fuzz", 1)
		resp, err := d.Claim(context.Background(), reg.ID, 0, max, nil)
		if err != nil || len(resp.Leases) != max {
			f.Fatalf("setup claim for %s: %+v err=%v", reg.ID, resp, err)
		}
		assigned[reg.ID] = make(map[int]remote.Lease)
		for _, l := range resp.Leases {
			assigned[reg.ID][l.Epoch] = l
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req remote.ClaimRequest
		if err := json.Unmarshal(data, &req); err != nil {
			return
		}
		resp, err := d.Claim(context.Background(), req.Worker, 0, req.Max, req.Held)
		mine, known := assigned[req.Worker]
		if err != nil {
			if known {
				t.Fatalf("claim by %s: %v", req.Worker, err)
			}
			return
		}
		if !known {
			t.Fatalf("claim by unknown worker %q answered %+v", req.Worker, resp)
		}
		listed := make(map[int]bool, len(req.Held))
		for _, e := range req.Held {
			listed[e] = true
		}
		seen := make(map[int]bool, len(resp.Leases))
		for _, l := range resp.Leases {
			want, ok := mine[l.Epoch]
			switch {
			case seen[l.Epoch]:
				t.Fatalf("lease %d delivered twice in %+v", l.Epoch, resp.Leases)
			case !ok || want.Job != l.Job || want.Unit.Key != l.Unit.Key:
				t.Fatalf("claim by %s delivered lease %+v, not one of its own", req.Worker, l)
			case listed[l.Epoch]:
				t.Fatalf("claim listing %v re-delivered lease %d", req.Held, l.Epoch)
			}
			seen[l.Epoch] = true
		}
		for e := range mine {
			if !listed[e] && !seen[e] {
				t.Fatalf("claim listing %v by %s lacks its unlisted lease %d", req.Held, req.Worker, e)
			}
		}
	})
}
