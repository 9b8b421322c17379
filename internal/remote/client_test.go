package remote

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fpmix/internal/faultinject"
	"fpmix/internal/jobs"
)

// countingServer answers every fleet POST with the given payload and
// counts deliveries per path.
func countingServer(t *testing.T, payload any) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(payload)
	}))
	t.Cleanup(ts.Close)
	return ts, &hits
}

// TestClientResetRetries: a NetReset faults the attempt before the
// request lands — the server must see exactly one (clean, retried)
// delivery and the call succeeds.
func TestClientResetRetries(t *testing.T) {
	ts, hits := countingServer(t, ReportResponse{Accepted: []bool{true}})
	c := NewClient(ts.URL, faultinject.NewNet(1, faultinject.NetRates{Reset: 1}, 0))
	acc, err := c.Report(context.Background(), ReportRequest{Worker: "r1",
		Reports: []UnitReport{{Job: "j1", Key: "6b", Epoch: 1}}})
	if err != nil || len(acc) != 1 || !acc[0] {
		t.Fatalf("Report: accepted=%v err=%v", acc, err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server saw %d deliveries, want 1 (reset never reaches it)", got)
	}
	st := c.net.Stats()
	if st.Resets != 1 {
		t.Fatalf("stats %+v, want exactly one reset", st)
	}
}

// TestClientDropDuplicates: a NetDrop loses the response after the
// server processed the request — the retry is a duplicate delivery, so
// the server sees two.
func TestClientDropDuplicates(t *testing.T) {
	ts, hits := countingServer(t, ReportResponse{Accepted: []bool{true}})
	c := NewClient(ts.URL, faultinject.NewNet(1, faultinject.NetRates{Drop: 1}, 0))
	acc, err := c.Report(context.Background(), ReportRequest{Worker: "r1",
		Reports: []UnitReport{{Job: "j1", Key: "6b", Epoch: 1}}})
	if err != nil || len(acc) != 1 || !acc[0] {
		t.Fatalf("Report: accepted=%v err=%v", acc, err)
	}
	if got := hits.Load(); got != 2 {
		t.Fatalf("server saw %d deliveries, want 2 (original + retry)", got)
	}
}

// TestClientDupDelivers: a NetDup sends the request twice back to
// back; the call succeeds with the first response and the duplicate's
// response is discarded (it must not overwrite the decoded result).
func TestClientDupDelivers(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := hits.Add(1)
		// First delivery accepted; the duplicate is rejected the way the
		// daemon's idempotency tokens would reject it.
		json.NewEncoder(w).Encode(ReportResponse{Accepted: []bool{n == 1}})
	}))
	defer ts.Close()
	c := NewClient(ts.URL, faultinject.NewNet(1, faultinject.NetRates{Dup: 1}, 0))
	acc, err := c.Report(context.Background(), ReportRequest{Worker: "r1",
		Reports: []UnitReport{{Job: "j1", Key: "6b", Epoch: 1}}})
	if err != nil || len(acc) != 1 || !acc[0] {
		t.Fatalf("Report: accepted=%v err=%v, want first response to win", acc, err)
	}
	if got := hits.Load(); got != 2 {
		t.Fatalf("server saw %d deliveries, want 2", got)
	}
}

// TestClientGoneTerminal: 410 maps to ErrGone immediately — no retry,
// the worker must re-register instead.
func TestClientGoneTerminal(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusGone)
		json.NewEncoder(w).Encode(map[string]string{"error": "unknown worker"})
	}))
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	if _, err := c.Heartbeat(context.Background(), "r9", 0); !errors.Is(err, ErrGone) {
		t.Fatalf("Heartbeat err = %v, want ErrGone", err)
	}
	if _, err := c.Report(context.Background(), ReportRequest{Worker: "r9"}); !errors.Is(err, ErrGone) {
		t.Fatalf("Report err = %v, want ErrGone", err)
	}
	if got := hits.Load(); got != 2 {
		t.Fatalf("server saw %d deliveries, want 2 (no retries on 410)", got)
	}
}

// TestClientRejectionTerminal: a non-200 answer other than 410 is a
// server-side rejection — retrying cannot help, one delivery only.
func TestClientRejectionTerminal(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusBadRequest)
	}))
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	if _, err := c.Register(context.Background(), "w", 1); err == nil {
		t.Fatal("Register against 400 succeeded")
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server saw %d deliveries, want 1", got)
	}
}

// TestClientTransportRetry: real connection failures (server down for
// the first attempts) retry with backoff until the server answers.
func TestClientTransportRetry(t *testing.T) {
	ts, _ := countingServer(t, RegisterResponse{ID: "r1", HeartbeatMS: 100, ExpiryMS: 800})
	// Point at a dead port first: every attempt fails, the call errors
	// out after maxAttempts without hanging.
	dead := NewClient("http://127.0.0.1:1", nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := dead.Register(ctx, "w", 1); err == nil {
		t.Fatal("Register against a dead port succeeded")
	}
	// Against a live server the same call lands.
	live := NewClient(ts.URL, nil)
	resp, err := live.Register(context.Background(), "w", 1)
	if err != nil || resp.ID != "r1" {
		t.Fatalf("Register: %+v err=%v", resp, err)
	}
}

// TestClientDelayStalls: a NetDelay decision stalls the attempt but
// the RPC still lands exactly once.
func TestClientDelayStalls(t *testing.T) {
	ts, hits := countingServer(t, HeartbeatResponse{State: "idle"})
	c := NewClient(ts.URL, faultinject.NewNet(1, faultinject.NetRates{Delay: 1}, 30*time.Millisecond))
	start := time.Now()
	if _, err := c.Heartbeat(context.Background(), "r1", 2); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("delayed heartbeat returned in %v, want ≥30ms", elapsed)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server saw %d deliveries, want 1", got)
	}
}

// TestClientRunnerCacheBounded: one worker serving more jobs than
// runnerCap keeps at most runnerCap evaluation stacks, dropping the
// least recently used — but never the runner of a job it holds a lease
// for, whose evaluations may still be queued behind the lookup.
func TestClientRunnerCacheBounded(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/fleet/jobs/{id}/spec", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(jobs.Spec{Kernel: "ep"})
	})
	mux.HandleFunc("POST /api/v1/fleet/claim", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(ClaimResponse{State: "busy", Leases: []Lease{{Job: "j0001", Epoch: 1}}})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	ctx := context.Background()
	if _, err := c.Claim(ctx, "w1", 0, 1); err != nil {
		t.Fatal(err)
	}
	pinned, err := c.Evaluator(ctx, "j0001")
	if err != nil {
		t.Fatal(err)
	}
	last := fmt.Sprintf("j%04d", runnerCap+3)
	for i := 2; i <= runnerCap+3; i++ {
		if _, err := c.Evaluator(ctx, fmt.Sprintf("j%04d", i)); err != nil {
			t.Fatal(err)
		}
		if n := len(c.runners); n > runnerCap {
			t.Fatalf("%d runners cached after %d jobs, want at most %d", n, i, runnerCap)
		}
	}
	if again, _ := c.Evaluator(ctx, "j0001"); again != pinned {
		t.Error("the leased job's runner was evicted and rebuilt")
	}
	if _, ok := c.runners["j0002"]; ok {
		t.Error("least recently used runner survived past the bound")
	}
	if _, ok := c.runners[last]; !ok {
		t.Error("most recently used runner was evicted")
	}
}

// TestClientRunnerBuiltOnce: concurrent first evaluators of one job —
// a worker with Parallel > 1 starting on a new job — share one runner
// build, so the spec endpoint is fetched exactly once.
func TestClientRunnerBuiltOnce(t *testing.T) {
	var specs atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/fleet/jobs/{id}/spec", func(w http.ResponseWriter, r *http.Request) {
		specs.Add(1)
		time.Sleep(50 * time.Millisecond) // keep the build in flight while the others arrive
		json.NewEncoder(w).Encode(jobs.Spec{Kernel: "ep"})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	const callers = 4
	evs := make([]Evaluator, callers)
	var wg sync.WaitGroup
	for i := range evs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev, err := c.Evaluator(context.Background(), "j0001")
			if err != nil {
				t.Error(err)
			}
			evs[i] = ev
		}()
	}
	wg.Wait()
	if n := specs.Load(); n != 1 {
		t.Errorf("%d concurrent evaluators fetched the spec %d times, want once", callers, n)
	}
	for i, ev := range evs {
		if ev == nil || ev != evs[0] {
			t.Errorf("evaluator %d is %v, want the shared runner %v", i, ev, evs[0])
		}
	}
}

// TestClientFailedBuildNotCached: a runner build that fails is retried
// by the next evaluator instead of replaying the error.
func TestClientFailedBuildNotCached(t *testing.T) {
	var specs atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/fleet/jobs/{id}/spec", func(w http.ResponseWriter, r *http.Request) {
		if specs.Add(1) == 1 {
			http.Error(w, "not yet", http.StatusNotFound)
			return
		}
		json.NewEncoder(w).Encode(jobs.Spec{Kernel: "ep"})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	if _, err := c.Evaluator(context.Background(), "j0001"); err == nil {
		t.Fatal("the first build succeeded against a failing spec endpoint")
	}
	if _, err := c.Evaluator(context.Background(), "j0001"); err != nil {
		t.Fatalf("the build after a failed one: %v", err)
	}
	if n := specs.Load(); n != 2 {
		t.Errorf("spec fetched %d times, want 2", n)
	}
}
