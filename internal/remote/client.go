package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"fpmix/internal/faultinject"
	"fpmix/internal/jobs"
	"fpmix/internal/search"
)

// ErrGone reports that the daemon no longer knows this worker ID (410
// Gone): the daemon restarted, or an operator killed the worker. The
// recovery is always the same — re-register under a fresh identity.
var ErrGone = errors.New("remote: worker identity gone, re-register")

// errInjected marks transport errors manufactured by the network
// chaos injector; they retry exactly like real ones.
type errInjected struct{ kind faultinject.NetKind }

func (e errInjected) Error() string {
	return fmt.Sprintf("remote: injected network fault (%s)", e.kind)
}

// Client is the HTTP Transport: JSON POSTs with per-RPC deadlines,
// jittered exponential retry on transport failures, and an optional
// deterministic network-fault injector exercising the daemon's
// idempotency guarantees (dropped responses force duplicate
// deliveries; resets force clean retries; see faultinject.NetKind).
// Its Evaluator builds each job's evaluation stack from the served spec
// and keeps a bounded cache of them.
type Client struct {
	base string
	hc   *http.Client
	net  *faultinject.NetInjector

	mu       sync.Mutex
	seq      int
	runners  map[string]*cachedRunner // job ID → evaluation stack, see runnerCap
	building map[string]*runnerBuild  // job ID → the build in flight
	leased   map[int]string           // epoch → job of the leases held as of the last claim
	tick     uint64                   // runner-use clock for LRU eviction
}

// runnerBuild is one job's runner build in flight: the evaluators that
// arrive meanwhile wait on done instead of building their own.
type runnerBuild struct {
	done chan struct{} // closed once r or err is set
	r    *search.UnitRunner
	err  error
}

// cachedRunner is one job's evaluation stack plus its last use.
type cachedRunner struct {
	r    *search.UnitRunner
	used uint64
}

// runnerCap bounds the runner cache. Past it, the least recently used
// runner of a job with no held lease is dropped, donor snapshots and
// all; a job that returns rebuilds its stack. Runners of jobs with held
// leases are never dropped, so the cache exceeds the cap only while the
// worker's own batch spans more jobs than that.
const runnerCap = 4

// Transport tuning. Every RPC gets its own deadline; retries back off
// exponentially from retryBase with full jitter, capped at retryCap.
const (
	rpcTimeout  = 10 * time.Second
	maxAttempts = 5
	retryBase   = 100 * time.Millisecond
	retryCap    = 2 * time.Second
)

// NewClient builds a transport against the daemon base URL
// (e.g. http://127.0.0.1:8606). A non-nil injector arms deterministic
// network chaos on every RPC.
func NewClient(base string, net *faultinject.NetInjector) *Client {
	return &Client{
		base:     base,
		hc:       &http.Client{},
		net:      net,
		runners:  make(map[string]*cachedRunner),
		building: make(map[string]*runnerBuild),
	}
}

// Register joins the fleet, declaring the worker's evaluation
// parallelism, retrying transient failures.
func (c *Client) Register(ctx context.Context, name string, parallel int) (RegisterResponse, error) {
	var resp RegisterResponse
	err := c.post(ctx, "register", name, "/api/v1/fleet/register",
		RegisterRequest{Name: name, Parallel: parallel}, &resp, rpcTimeout)
	return resp, err
}

// Claim long-polls for up to max new leases, listing the epochs of
// the leases the worker holds. The RPC deadline covers the server's
// long-poll window plus transport grace. The held leases and the
// response's leases are together every lease the worker holds, so
// their jobs are exactly the ones whose runners the cache must keep;
// the jobs of held leases come from the responses that delivered them.
func (c *Client) Claim(ctx context.Context, worker string, wait time.Duration, max int, held []int) (ClaimResponse, error) {
	var resp ClaimResponse
	err := c.post(ctx, "claim", c.nextKey(worker), "/api/v1/fleet/claim",
		ClaimRequest{Worker: worker, WaitMS: wait.Milliseconds(), Max: max, Held: held}, &resp, wait+rpcTimeout)
	if err == nil {
		c.mu.Lock()
		leased := make(map[int]string, len(held)+len(resp.Leases))
		for _, e := range held {
			if job, ok := c.leased[e]; ok {
				leased[e] = job
			}
		}
		for _, l := range resp.Leases {
			leased[l.Epoch] = l.Job
		}
		c.leased = leased
		c.mu.Unlock()
	}
	return resp, err
}

// Heartbeat refreshes the worker's lease clock, reporting how many
// evaluations are running right now. One attempt only — a missed beat
// is harmless well under the expiry budget, and the next tick retries
// naturally.
func (c *Client) Heartbeat(ctx context.Context, worker string, inflight int) (HeartbeatResponse, error) {
	var resp HeartbeatResponse
	err := c.once(ctx, "heartbeat", c.nextKey(worker), "/api/v1/fleet/heartbeat",
		HeartbeatRequest{Worker: worker, InFlight: inflight}, &resp, rpcTimeout)
	return resp, err
}

// nextKey derives a fresh chaos key (prefix plus a client-local
// sequence number) so successive claims and heartbeats roll
// independent fault decisions.
func (c *Client) nextKey(prefix string) string {
	c.mu.Lock()
	c.seq++
	k := prefix + "#" + strconv.Itoa(c.seq)
	c.mu.Unlock()
	return k
}

// Report delivers a batch of verdicts (or worker-side errors),
// retrying until the daemon answers. Accepted[i]=false is a normal
// outcome for a unit — a duplicate of a delivery that already landed,
// or a lease lost to reassignment; either way the worker moves on. The
// chaos key is derived from the batch's (job, key) pairs, so retries
// of one logical batch roll one fault decision while distinct batches
// roll independently.
func (c *Client) Report(ctx context.Context, req ReportRequest) ([]bool, error) {
	var b strings.Builder
	for i, r := range req.Reports {
		if i > 0 {
			b.WriteByte('\x01')
		}
		b.WriteString(r.Job)
		b.WriteByte('\x00')
		b.WriteString(r.Key)
	}
	var resp ReportResponse
	err := c.post(ctx, "report", b.String(), "/api/v1/fleet/report",
		req, &resp, rpcTimeout)
	return resp.Accepted, err
}

// Evaluator returns the job's evaluation stack, building it on first
// use from the daemon-served spec — the same engine mode and chaos
// wiring the daemon's own runner uses, so remote verdicts are
// indistinguishable from local ones. One runner serves all Parallel
// evaluators of a job, and concurrent first calls share one build; a
// failed build is not cached. Job IDs are stable across daemon restarts
// and specs are immutable, so a cached runner never goes stale.
func (c *Client) Evaluator(ctx context.Context, job string) (Evaluator, error) {
	c.mu.Lock()
	if e, ok := c.runners[job]; ok {
		c.tick++
		e.used = c.tick
		c.mu.Unlock()
		return e.r, nil
	}
	b, ok := c.building[job]
	if !ok {
		b = &runnerBuild{done: make(chan struct{})}
		c.building[job] = b
		c.mu.Unlock()
		b.r, b.err = c.buildRunner(ctx, job)
		c.mu.Lock()
		delete(c.building, job)
		if b.err == nil {
			c.cacheLocked(job, b.r)
		}
		close(b.done)
	}
	c.mu.Unlock()
	select {
	case <-b.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if b.err != nil {
		return nil, b.err
	}
	return b.r, nil
}

// buildRunner fetches the job's spec and builds its evaluation stack.
func (c *Client) buildRunner(ctx context.Context, job string) (*search.UnitRunner, error) {
	spec, err := c.JobSpec(ctx, job)
	if err != nil {
		return nil, err
	}
	target, _, err := spec.Build()
	if err != nil {
		return nil, err
	}
	var chaos *faultinject.Injector
	if spec.Chaos != 0 {
		chaos = faultinject.New(spec.Chaos, faultinject.DefaultRates, 0)
	}
	return search.NewUnitRunner(target, search.Options{Context: ctx, Chaos: chaos})
}

// cacheLocked adds a built runner to the cache and evicts past
// runnerCap; callers hold c.mu.
func (c *Client) cacheLocked(job string, r *search.UnitRunner) {
	c.tick++
	c.runners[job] = &cachedRunner{r: r, used: c.tick}
	if len(c.runners) <= runnerCap {
		return
	}
	pinned := make(map[string]bool, len(c.leased))
	for _, id := range c.leased {
		pinned[id] = true
	}
	for len(c.runners) > runnerCap {
		victim := ""
		for id, e := range c.runners {
			if !pinned[id] && (victim == "" || e.used < c.runners[victim].used) {
				victim = id
			}
		}
		if victim == "" {
			break
		}
		delete(c.runners, victim)
	}
}

// JobSpec fetches the spec of the job a lease belongs to, from which
// the worker builds its local evaluation stack.
func (c *Client) JobSpec(ctx context.Context, job string) (jobs.Spec, error) {
	var spec jobs.Spec
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if err := backoff(ctx, attempt); err != nil {
			return spec, err
		}
		rctx, cancel := context.WithTimeout(ctx, rpcTimeout)
		req, err := http.NewRequestWithContext(rctx, "GET", c.base+"/api/v1/fleet/jobs/"+job+"/spec", nil)
		if err != nil {
			cancel()
			return spec, err
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			cancel()
			lastErr = err
			continue
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			return spec, fmt.Errorf("remote: job spec %s: %s: %s", job, resp.Status, bytes.TrimSpace(data))
		}
		return spec, json.Unmarshal(data, &spec)
	}
	return spec, fmt.Errorf("remote: job spec %s: %w", job, lastErr)
}

// post sends one JSON RPC with retry/backoff and chaos injection. op
// and key feed the injector (only attempt 0 of a pair is ever
// faulted, so the retry loop always reaches a clean attempt).
func (c *Client) post(ctx context.Context, op, key, path string, reqBody, respBody any, deadline time.Duration) error {
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if err := backoff(ctx, attempt); err != nil {
			return err
		}
		err := c.attempt(ctx, op, key, attempt, path, reqBody, respBody, deadline)
		if err == nil || errors.Is(err, ErrGone) || errors.Is(err, errStatus) {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("remote: %s gave up after %d attempts: %w", op, maxAttempts, lastErr)
}

// once sends one JSON RPC without retry (heartbeats).
func (c *Client) once(ctx context.Context, op, key, path string, reqBody, respBody any, deadline time.Duration) error {
	return c.attempt(ctx, op, key, 0, path, reqBody, respBody, deadline)
}

// errStatus marks terminal HTTP-status failures (the server answered;
// retrying the same request cannot help).
var errStatus = errors.New("remote: rpc rejected")

func (c *Client) attempt(ctx context.Context, op, key string, attempt int, path string, reqBody, respBody any, deadline time.Duration) error {
	var dec faultinject.NetDecision
	if c.net != nil {
		dec = c.net.Decide(op, key, attempt)
	}
	switch dec.Kind {
	case faultinject.NetReset:
		// Connection reset before the request lands: the server saw
		// nothing; the retry is the first delivery.
		return errInjected{dec.Kind}
	case faultinject.NetDelay:
		select {
		case <-time.After(dec.Delay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	send := func(dst any) error {
		rctx, cancel := context.WithTimeout(ctx, deadline)
		defer cancel()
		data, err := json.Marshal(reqBody)
		if err != nil {
			return err
		}
		req, err := http.NewRequestWithContext(rctx, "POST", c.base+path, bytes.NewReader(data))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.hc.Do(req)
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		switch {
		case resp.StatusCode == http.StatusGone:
			return ErrGone
		case resp.StatusCode != http.StatusOK:
			return fmt.Errorf("%w: %s %s: %s", errStatus, op, resp.Status, bytes.TrimSpace(body))
		}
		return json.Unmarshal(body, dst)
	}
	err := send(respBody)
	switch dec.Kind {
	case faultinject.NetDrop:
		// The server processed the request; the response is dropped on
		// the way back. The retry is a duplicate delivery the daemon's
		// idempotency tokens must absorb.
		if err == nil {
			return errInjected{dec.Kind}
		}
		return err
	case faultinject.NetDup:
		// The request is delivered twice; the second copy's outcome is
		// discarded — the daemon must have discarded it too.
		if err == nil {
			send(&struct{}{})
		}
		return err
	}
	return err
}

// backoff waits the jittered exponential delay before the given
// attempt (none before the first). The RPC retries and the worker
// runtime's register/claim loops share it, so a briefly-unreachable
// daemon is never hammered by a fleet retrying in lockstep.
func backoff(ctx context.Context, attempt int) error {
	if attempt == 0 {
		return nil
	}
	d := retryBase << (attempt - 1)
	if d > retryCap {
		d = retryCap
	}
	d = time.Duration(rand.Int63n(int64(d))) + d/2 // full-ish jitter in [d/2, 3d/2)
	select {
	case <-time.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
