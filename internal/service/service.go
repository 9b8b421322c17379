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
	"time"

	"fpmix/internal/faultinject"
	"fpmix/internal/fleet"
	"fpmix/internal/jobs"
	"fpmix/internal/search"
	"fpmix/internal/shadow"
)

// Options configure a server.
type Options struct {
	// Dir roots the job store (and the shared verdict cache file).
	Dir string
	// Workers is the in-process worker count (default 4). Negative means
	// zero in-process workers — a remote-only daemon whose evaluations
	// all run in fpmixworker processes (falling back in-process only
	// when no healthy remote worker remains).
	Workers int
	// DrainTimeout bounds graceful shutdown: Close stops granting new
	// remote leases, waits up to this long for in-flight remote units to
	// deliver (their verdicts journal), then requeues whatever remains.
	// Zero skips the wait.
	DrainTimeout time.Duration
	// Fleet tunes failure detection (zero values take fleet defaults).
	// The service always enables the fleet's in-process fallback: a
	// daemon whose whole fleet dies or quarantines degrades to local
	// evaluation instead of failing jobs.
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
	opts.Fleet.Fallback = true
	store, err := jobs.Open(opts.Dir)
	if err != nil {
		return nil, err
	}
	cache, err := jobs.OpenCache(filepath.Join(opts.Dir, "verdicts.cache"))
	if err != nil {
		return nil, err
	}
	pool := fleet.New(opts.Fleet)
	pool.Start(opts.Workers)
	s := &Server{
		store: store, cache: cache, pool: pool, opts: opts,
		cancels: make(map[string]context.CancelFunc),
		streams: make(map[string]*stream),
	}
	// Relaunch everything a previous incarnation left unfinished: jobs
	// recovered running→queued at store open, and jobs that were queued
	// but never started.
	for _, j := range store.List() {
		if j.State == jobs.StateQueued {
			s.launch(j.ID)
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
	j, err := s.store.Create(spec)
	if err != nil {
		return jobs.Job{}, err
	}
	s.launch(j.ID)
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

// Close shuts the server down gracefully: remote leases drain first —
// no new units ship over the wire, and in-flight remote units get up to
// Options.DrainTimeout to deliver, so their verdicts reach the journals
// — then running jobs are interrupted and re-queued (the journals keep
// every settled verdict, so the next incarnation resumes them), any
// remote lease still outstanding is broken and requeued, and the fleet
// and cache close. The release/interrupt steps run strictly after the
// job contexts are cancelled: an interrupted verdict delivered to a
// live search would silently drop its piece from the final.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closing = true
	s.mu.Unlock()
	s.pool.DrainRemote()
	if s.opts.DrainTimeout > 0 {
		if left := s.pool.AwaitRemoteIdle(s.opts.DrainTimeout); left > 0 {
			// Timed out: the stragglers are requeued below and re-evaluated
			// by the next incarnation.
			_ = left
		}
	}
	s.mu.Lock()
	for _, cancel := range s.cancels {
		cancel()
	}
	s.mu.Unlock()
	s.pool.ReleaseRemoteLeases()
	s.pool.InterruptQueued()
	s.wg.Wait()
	s.pool.Close()
	return s.cache.Close()
}

// crash simulates the server dying mid-run: job goroutines stop without
// any state transition or requeue, leaving "running" records on disk
// exactly as a kill -9 would. The next New over the same dir must
// recover them. Test hook.
func (s *Server) crash() {
	s.mu.Lock()
	s.crashed = true
	s.closing = true
	for _, cancel := range s.cancels {
		cancel()
	}
	s.mu.Unlock()
	// Units leased to remote workers (or queued with none to take them)
	// would otherwise block their coordinators forever: break them so
	// wg.Wait terminates. Safe — the contexts above are already
	// cancelled, so the interrupted verdicts reach only dying searches.
	s.pool.ReleaseRemoteLeases()
	s.pool.InterruptQueued()
	s.wg.Wait()
	s.pool.Close()
	s.cache.Close()
}

// launch starts the job's run goroutine.
func (s *Server) launch(id string) {
	ctx, cancel := context.WithCancel(context.Background())
	s.mu.Lock()
	s.cancels[id] = cancel
	st := newStream()
	s.streams[id] = st
	s.wg.Add(1)
	s.mu.Unlock()
	go s.runJob(id, ctx, cancel, st)
}

// runJob drives one job through its lifecycle.
func (s *Server) runJob(id string, ctx context.Context, cancel context.CancelFunc, st *stream) {
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
	res, sh, err := s.execute(ctx, id, st)
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

// execute runs the search itself: target build, sensitivity profile,
// journal open (fresh or resumed), unit runner registration with the
// fleet, then the coordinator. Options mirror fpsearch's defaults so a
// service job composes the identical final configuration.
func (s *Server) execute(ctx context.Context, id string, st *stream) (*search.Result, *shadow.Profile, error) {
	j, ok := s.store.Get(id)
	if !ok {
		return nil, nil, fmt.Errorf("service: no job %s", id)
	}
	target, sensTol, err := j.Spec.Build()
	if err != nil {
		return nil, nil, err
	}
	var sh *shadow.Profile
	if !j.Spec.NoSens {
		if sh, err = shadow.Collect(j.Name, target.Module, target.MaxSteps); err != nil {
			return nil, nil, err
		}
	}
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
	mode := search.EngineFork
	if j.Spec.NoFork {
		mode = search.EngineOn
	}
	var chaos *faultinject.Injector
	if j.Spec.Chaos != 0 {
		chaos = faultinject.New(j.Spec.Chaos, faultinject.DefaultRates, 0)
	}
	runner, err := search.NewUnitRunner(target, search.Options{
		Engine:  mode,
		Context: ctx,
		Chaos:   chaos,
	})
	if err != nil {
		return nil, nil, err
	}
	handle := s.pool.Register(id, runner)
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
		Engine:        mode,
		NoPrune:       j.Spec.NoPrune,
		NoProve:       j.Spec.NoProve,
		Shadow:        sh,
		SensThreshold: sensTol,
		Context:       ctx,
		Checkpoint:    journal,
		Units:         handle,
		Cache:         s.cache.Scope(j.Image),
		Observe:       st.observe,
	})
	if err != nil {
		return nil, nil, err
	}
	return res, sh, nil
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
