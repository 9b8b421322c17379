// Package service glues the fpmixd pieces together: the durable job
// store (internal/jobs), the sharded-evaluation fleet (internal/fleet)
// and the search coordinator (internal/search). One Server owns one
// store directory, one shared cross-job verdict cache and one worker
// pool; every submitted job runs the exact serial search trajectory —
// the coordinator stays in-process and only unit evaluation is sharded
// — so a job's final configuration is byte-identical to what a serial
// fpsearch run would compose.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"fpmix/internal/dataflow"
	"fpmix/internal/faultinject"
	"fpmix/internal/fleet"
	"fpmix/internal/jobs"
	"fpmix/internal/remote"
	"fpmix/internal/search"
	"fpmix/internal/shadow"
)

// Options configure a server.
type Options struct {
	// Dir roots the job store (and the shared verdict cache file).
	Dir string
	// Workers is the local worker count (default 4): remote worker
	// runtimes (Parallel 1, Batch 1, named "local") serving the pool over
	// its in-memory transport and evaluating on each job's own runner.
	// Negative means none — a remote-only daemon whose evaluations all
	// run in fpmixworker processes (falling back in-process only when no
	// healthy worker remains; the fleet always degrades that way rather
	// than failing jobs).
	Workers int
	// DrainTimeout bounds graceful shutdown: Close stops granting new
	// leases, waits up to this long for held leases to deliver (their
	// verdicts journal), then cancels the jobs, which requeue. Zero
	// skips the wait.
	DrainTimeout time.Duration
	// Fleet tunes failure detection (zero values take fleet defaults).
	Fleet fleet.Options
}

// Server runs search jobs against a worker fleet.
type Server struct {
	store *jobs.Store
	cache *jobs.Cache
	pool  *fleet.Pool
	opts  Options

	mu      sync.Mutex
	cancels map[string]context.CancelFunc
	streams map[string]*stream
	closing bool
	crashed bool
	wg      sync.WaitGroup

	stopLocal context.CancelFunc // ends the local workers
	locals    sync.WaitGroup

	memoMu sync.Mutex
	memo   map[string]*specMemo // jobs.Spec.BuildKey → its build, see imageMemoCap
}

// imageMemoCap bounds the spec memo; past it the memo resets (losing an
// entry costs one target build, shadow pass and dataflow analysis on
// the spec's next job, never correctness).
const imageMemoCap = 32

// specMemo holds what every job over one spec build identity
// (jobs.Spec.BuildKey) shares, read-only: the built target with its
// base configuration resolved, the gate tolerance and the image digest,
// then the image's shadow profile (whose collection run is the search's
// profiling run too) and its dataflow result. Each is a deterministic
// function of the key and is computed on first use; a failed build is
// kept like a result, since rebuilding would fail the same way.
type specMemo struct {
	buildOnce sync.Once
	built     jobs.Built
	buildErr  error

	shOnce sync.Once
	sh     *shadow.Profile
	shErr  error

	dfOnce sync.Once
	df     *dataflow.Result // nil when the analysis failed
}

// work counts the expensive per-job steps a job's lifecycle takes, so
// tests can pin what a warm job skips.
var work struct {
	targetBuilds, shadowCollects, profileRuns, dataflowRuns, runnerBuilds atomic.Int64
}

// build returns the spec's built target, building it on first use.
func (m *specMemo) build(spec jobs.Spec) (*jobs.Built, error) {
	m.buildOnce.Do(func() {
		work.targetBuilds.Add(1)
		m.built, m.buildErr = spec.Built()
	})
	return &m.built, m.buildErr
}

// New opens (or recovers) a server over opts.Dir: jobs a previous
// incarnation left running re-queue at store open and relaunch
// immediately, resuming from their checkpoint journals.
func New(opts Options) (*Server, error) {
	switch {
	case opts.Workers == 0:
		opts.Workers = 4
	case opts.Workers < 0:
		opts.Workers = 0 // remote-only
	}
	store, err := jobs.Open(opts.Dir)
	if err != nil {
		return nil, err
	}
	cache, err := jobs.OpenCache(filepath.Join(opts.Dir, "verdicts.cache"))
	if err != nil {
		return nil, err
	}
	pool := fleet.New(opts.Fleet)
	lctx, stopLocal := context.WithCancel(context.Background())
	s := &Server{
		store: store, cache: cache, pool: pool, opts: opts,
		cancels:   make(map[string]context.CancelFunc),
		streams:   make(map[string]*stream),
		stopLocal: stopLocal,
		memo:      make(map[string]*specMemo),
	}
	for i := 0; i < opts.Workers; i++ {
		s.locals.Add(1)
		go func() {
			defer s.locals.Done()
			remote.Serve(lctx, pool.Direct(), remote.WorkerOptions{Name: "local", Parallel: 1, Batch: 1})
		}()
	}
	// Local workers take the first identities (w1..wN) and are in the
	// registry before any job or remote worker can arrive.
	for pool.Alive() < opts.Workers {
		time.Sleep(50 * time.Microsecond)
	}
	// Relaunch everything a previous incarnation left unfinished: jobs
	// recovered running→queued at store open, and jobs that were queued
	// but never started.
	for _, j := range store.List() {
		if j.State == jobs.StateQueued {
			s.launch(j.ID, nil)
		}
	}
	return s, nil
}

// Store exposes the job store (read-side: Get, List, paths).
func (s *Server) Store() *jobs.Store { return s.store }

// Pool exposes the worker registry.
func (s *Server) Pool() *fleet.Pool { return s.pool }

// CacheLen reports the shared verdict cache's size.
func (s *Server) CacheLen() int { return s.cache.Len() }

// Submit validates, persists and launches a job.
func (s *Server) Submit(spec jobs.Spec) (jobs.Job, error) {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return jobs.Job{}, fmt.Errorf("service: server is shutting down")
	}
	s.mu.Unlock()
	if err := spec.Validate(); err != nil {
		return jobs.Job{}, err
	}
	m := s.memoFor(spec.BuildKey())
	built, err := m.build(spec)
	if err != nil {
		return jobs.Job{}, err
	}
	j, err := s.store.CreateBuilt(spec, built)
	if err != nil {
		return jobs.Job{}, err
	}
	s.launch(j.ID, m)
	return j, nil
}

// Cancel stops a job: a running one is interrupted (its in-flight units
// settle as interrupted and the search stops), a queued one just flips
// state.
func (s *Server) Cancel(id string) error {
	j, ok := s.store.Get(id)
	if !ok {
		return fmt.Errorf("service: no job %s", id)
	}
	s.mu.Lock()
	cancel := s.cancels[id]
	s.mu.Unlock()
	if cancel != nil {
		cancel()
		return nil
	}
	if j.State == jobs.StateQueued {
		return s.store.Transition(id, jobs.StateCancelled, "")
	}
	if j.State.Terminal() {
		return fmt.Errorf("service: job %s already %s", id, j.State)
	}
	return nil
}

// Summary loads a finished job's search summary.
func (s *Server) Summary(id string) (*search.Summary, error) {
	data, err := os.ReadFile(s.store.SummaryPath(id))
	if err != nil {
		return nil, err
	}
	var sum search.Summary
	if err := json.Unmarshal(data, &sum); err != nil {
		return nil, err
	}
	return &sum, nil
}

// Close shuts the server down gracefully: the fleet drains first — no
// new leases, and held ones get up to Options.DrainTimeout to deliver,
// so their verdicts reach the journals — then running jobs are
// cancelled and re-queued (the journals keep every settled verdict, so
// the next incarnation resumes them). A cancelled job's outstanding
// units leave the pool with it, so no interrupted verdict can reach a
// search that is still running.
func (s *Server) Close() error {
	s.shutdown(s.opts.DrainTimeout, false)
	return s.cache.Close()
}

// crash simulates the server dying mid-run: job goroutines stop without
// any state transition or requeue, leaving "running" records on disk
// exactly as a kill -9 would. The next New over the same dir must
// recover them. Test hook.
func (s *Server) crash() {
	s.shutdown(0, true)
	s.cache.Close()
}

// shutdown drains the fleet, cancels every job and waits for them, then
// stops the local workers and closes the pool.
func (s *Server) shutdown(drain time.Duration, crashed bool) {
	s.mu.Lock()
	s.closing = true
	s.crashed = crashed
	s.mu.Unlock()
	s.pool.Drain(drain)
	s.mu.Lock()
	for _, cancel := range s.cancels {
		cancel()
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.stopLocal()
	s.locals.Wait()
	s.pool.Close()
}

// launch starts the job's run goroutine. m is the spec memo entry
// Submit built the job's target in; nil (a job relaunched by recovery)
// looks it up in execute.
func (s *Server) launch(id string, m *specMemo) {
	ctx, cancel := context.WithCancel(context.Background())
	s.mu.Lock()
	s.cancels[id] = cancel
	st := newStream()
	s.streams[id] = st
	s.wg.Add(1)
	s.mu.Unlock()
	go s.runJob(id, ctx, cancel, st, m)
}

// runJob drives one job through its lifecycle.
func (s *Server) runJob(id string, ctx context.Context, cancel context.CancelFunc, st *stream, m *specMemo) {
	defer s.wg.Done()
	defer cancel()
	defer func() {
		s.mu.Lock()
		delete(s.cancels, id)
		s.mu.Unlock()
	}()
	if err := s.store.Transition(id, jobs.StateRunning, ""); err != nil {
		st.close()
		return
	}
	res, sh, err := s.execute(ctx, id, st, m)
	s.mu.Lock()
	crashed, closing := s.crashed, s.closing
	s.mu.Unlock()
	if crashed {
		// Simulated death: leave the on-disk state "running" for the next
		// incarnation's recovery. (A real crash never reaches here at all.)
		return
	}
	switch {
	case err != nil:
		s.store.Transition(id, jobs.StateFailed, err.Error())
	case res.Interrupted && closing:
		// Graceful shutdown: back to queued; the journal carries the work.
		s.store.Requeue(id)
	case res.Interrupted:
		s.store.Transition(id, jobs.StateCancelled, "")
	default:
		if werr := s.writeArtifacts(id, res, sh); werr != nil {
			s.store.Transition(id, jobs.StateFailed, werr.Error())
		} else {
			s.store.Transition(id, jobs.StateDone, "")
		}
	}
	st.close()
}

// execute runs the search itself: the spec's target, sensitivity
// profile and dataflow result (from the spec memo, built there on the
// spec's first job), journal open (fresh or resumed), unit runner
// registration with the fleet, then the coordinator. Options mirror
// fpsearch's defaults so a service job composes the identical final
// configuration.
func (s *Server) execute(ctx context.Context, id string, st *stream, m *specMemo) (*search.Result, *shadow.Profile, error) {
	j, ok := s.store.Get(id)
	if !ok {
		return nil, nil, fmt.Errorf("service: no job %s", id)
	}
	if m == nil {
		m = s.memoFor(j.Spec.BuildKey())
	}
	built, err := m.build(j.Spec)
	if err != nil {
		return nil, nil, err
	}
	target := built.Target
	var sh *shadow.Profile
	if !j.Spec.NoSens {
		m.shOnce.Do(func() {
			work.shadowCollects.Add(1)
			m.sh, m.shErr = shadow.Collect(j.Name, target.Module, target.MaxSteps)
		})
		if m.shErr != nil {
			return nil, nil, m.shErr
		}
		sh = m.sh
	}
	m.dfOnce.Do(func() {
		work.dataflowRuns.Add(1)
		m.df, _ = dataflow.Analyze(target.Module) // a failure leaves search and instrumenter to fall back
	})
	target.InstOpts.Analysis = m.df
	journal, resumed, err := s.store.OpenJournal(id, j.Fingerprint())
	if err != nil {
		return nil, nil, err
	}
	defer journal.Close()
	// Group-commit the journal: during sequential descent every settle
	// is a write-batch boundary, and an fsync per verdict serializes
	// ~ms of disk wait into the settle loop. A crash inside the window
	// re-runs at most the last window's units on resume.
	journal.SetGroupCommit(100 * time.Millisecond)
	if resumed > 0 {
		st.note(fmt.Sprintf("resuming %d settled verdicts from the journal", resumed))
	}
	var chaos *faultinject.Injector
	if j.Spec.Chaos != 0 {
		chaos = faultinject.New(j.Spec.Chaos, faultinject.DefaultRates, 0)
	}
	runner := &lazyRunner{build: func() (*search.UnitRunner, error) {
		work.runnerBuilds.Add(1)
		return search.NewUnitRunner(target, search.Options{Context: ctx, Chaos: chaos})
	}}
	handle := s.pool.Register(ctx, id, runner)
	inflight := s.opts.Workers
	if inflight <= 0 {
		// Remote-only daemon: keep enough units in flight to feed a
		// worker fleet whose size the daemon cannot know up front —
		// batched leasing hands each remote worker several units per
		// claim, so the queue must run deep enough to fill every
		// worker's prefetch buffer without starving its peers.
		inflight = 32
	}
	res, err := search.Run(target, search.Options{
		Workers:       inflight,
		Granularity:   j.Spec.Kind(),
		BinarySplit:   true,
		Prioritize:    true,
		NoPrune:       j.Spec.NoPrune,
		NoProve:       j.Spec.NoProve,
		Shadow:        sh,
		SensThreshold: built.SensTol,
		Context:       ctx,
		Checkpoint:    journal,
		Units:         handle,
		Cache:         s.cache.Scope(j.Image),
		Observe:       st.observe,
	})
	if err != nil {
		return nil, nil, err
	}
	work.profileRuns.Add(int64(res.ProfileRuns))
	return res, sh, nil
}

// memoFor returns the memo entry of a spec build key, creating it (and
// resetting a full memo) on a miss.
func (s *Server) memoFor(key string) *specMemo {
	s.memoMu.Lock()
	defer s.memoMu.Unlock()
	m, ok := s.memo[key]
	if !ok {
		if len(s.memo) >= imageMemoCap {
			s.memo = make(map[string]*specMemo)
		}
		m = &specMemo{}
		s.memo[key] = m
	}
	return m
}

// lazyRunner is the evaluator execute registers for a job: it builds the
// job's UnitRunner (precompile, stable layout; the donor pass follows
// on the first unit) on its first evaluation, so a job whose verdicts
// the cache serves, or whose units all run on remote workers with their
// own runners, never builds one.
type lazyRunner struct {
	build func() (*search.UnitRunner, error)
	once  sync.Once
	r     *search.UnitRunner
	err   error
}

func (l *lazyRunner) Evaluate(u search.EvalUnit) (search.Verdict, error) {
	l.once.Do(func() { l.r, l.err = l.build() })
	if l.err != nil {
		return search.Verdict{}, l.err
	}
	return l.r.Evaluate(u)
}

// writeArtifacts persists a finished job's final configuration (in the
// exchange format, sensitivity-annotated like fpsearch -o) and its
// machine-readable search summary.
func (s *Server) writeArtifacts(id string, res *search.Result, sh *shadow.Profile) error {
	j, _ := s.store.Get(id)
	cfg := res.Final
	if sh != nil {
		shadow.AnnotateConfig(sh, cfg)
	}
	f, err := os.Create(s.store.ResultPath(id))
	if err != nil {
		return err
	}
	if err := cfg.Write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	sum := search.Summarize(j.Name, res)
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(s.store.SummaryPath(id), append(data, '\n'), 0o644)
}
