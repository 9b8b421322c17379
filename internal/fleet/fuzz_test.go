package fleet

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"slices"
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
// that the list lacks, and none that it lists; it must list the running
// jobs, non-nil, whatever the lease outcome. The committed corpus
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
		if !slices.Equal(resp.Jobs, []string{"j0001"}) {
			t.Fatalf("claim by %s lists running jobs %#v, want [j0001]", req.Worker, resp.Jobs)
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

// FuzzReportBatch feeds arbitrary report bodies through Direct.Report,
// twice each — a duplicated report RPC — to a fresh pool in which
// worker w1 holds three leases of job j0001, w2 holds one of job j0002
// under a unit key w1 also holds, and w3 holds none; two consecutive
// failure reports quarantine a worker. A body that decodes must never
// panic. A known worker's answer has one entry per report, and an
// entry is accepted exactly when the reporting worker still holds the
// lease its job, hex key and epoch name: not one another worker holds,
// not one an earlier entry or delivery settled, broke or requeued, and
// none once the worker is quarantined. No shard settles twice, and
// exactly the accepted verdicts settle shards. The committed corpus
// covers a valid batch, duplicate entries, another worker's epoch, an
// undecodable hex key, error and interrupted entries, and a quarantine
// that breaks the rest of the batch.
func FuzzReportBatch(f *testing.F) {
	const quarantineAfter = 2
	type token struct {
		job, key string
		epoch    int
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req remote.ReportRequest
		if err := json.Unmarshal(data, &req); err != nil {
			return
		}
		p := New(Options{Heartbeat: time.Millisecond, Expiry: 1000 * time.Hour, QuarantineAfter: quarantineAfter})
		defer p.Close()
		d := p.Direct()
		j1 := p.Register(context.Background(), "j0001", &fakeEval{})
		j2 := p.Register(context.Background(), "j0002", &fakeEval{})
		var shards []*shard
		for _, u := range []struct {
			job *JobHandle
			key string
		}{{j1, "k1"}, {j1, "k2"}, {j1, "k3"}, {j2, "k1"}} {
			// Room for a second settle, so a double delivery shows
			// instead of blocking.
			sh := &shard{job: u.job, unit: search.EvalUnit{Key: u.key, Label: u.key}, done: make(chan shardResult, 2)}
			shards = append(shards, sh)
		}
		p.queue = append(p.queue, shards...)
		held := make(map[string]map[token]bool) // worker → leases it holds
		for _, max := range []int{3, 1, 0} {
			reg, _ := d.Register(context.Background(), "fuzz", 1)
			held[reg.ID] = make(map[token]bool)
			if max == 0 {
				continue
			}
			resp, err := d.Claim(context.Background(), reg.ID, 0, max, nil)
			if err != nil || len(resp.Leases) != max {
				t.Fatalf("setup claim for %s: %+v err=%v", reg.ID, resp, err)
			}
			for _, l := range resp.Leases {
				key, _ := hex.DecodeString(l.Unit.Key)
				held[reg.ID][token{l.Job, string(key), l.Epoch}] = true
			}
		}
		fails := make(map[string]int)
		verdicts := 0
		for delivery := 0; delivery < 2; delivery++ {
			accepted, err := d.Report(context.Background(), req)
			mine, known := held[req.Worker]
			if !known {
				if err == nil {
					t.Fatalf("report by unknown worker %q answered %v", req.Worker, accepted)
				}
				return
			}
			if err != nil || len(accepted) != len(req.Reports) {
				t.Fatalf("report of %d entries by %s: accepted=%v err=%v", len(req.Reports), req.Worker, accepted, err)
			}
			for i, r := range req.Reports {
				key, herr := hex.DecodeString(r.Key)
				tok := token{r.Job, string(key), r.Epoch}
				if want := herr == nil && mine[tok]; accepted[i] != want {
					t.Fatalf("delivery %d entry %d %+v by %s: accepted=%v, want %v (holds %v)", delivery, i, r, req.Worker, accepted[i], want, mine)
				}
				if !accepted[i] {
					continue
				}
				delete(mine, tok)
				switch {
				case r.Error != "":
					if fails[req.Worker]++; fails[req.Worker] >= quarantineAfter {
						clear(mine)
					}
				case r.Verdict.Interrupted:
				default:
					fails[req.Worker] = 0
					verdicts++
				}
			}
		}
		settled := 0
		for _, sh := range shards {
			switch len(sh.done) {
			case 0:
			case 1:
				settled++
			default:
				t.Fatalf("shard %s/%s settled %d times", sh.job.id, sh.unit.Key, len(sh.done))
			}
		}
		if settled != verdicts {
			t.Fatalf("%d shards settled for %d accepted verdicts", settled, verdicts)
		}
	})
}
