// Package search implements the paper's automatic breadth-first
// configuration search (§2.2): starting from whole-module replacement it
// descends through functions, basic blocks and individual instructions to
// find the coarsest granularity at which each part of the program can run
// in single precision while passing a user-supplied verification routine.
//
// Two optimizations from the paper are implemented: binary splitting of
// large failed aggregates into two intermediate partitions, and
// prioritization of candidate configurations by profiled execution count.
// Evaluations are independent full program runs, so the search evaluates
// configurations on a parallel worker pool.
//
// Run drives an unexported searcher: recall runs the verdict stages that
// need neither the prover nor a run, prove the error-bound prover, launch
// and park hold the units in flight, settle lands every verdict and
// expand queues a failed piece's children, fail drains the units after an
// error, and compose builds the final configuration and runs its union.
package search

import (
	"container/heap"
	"context"
	"fmt"
	"maps"
	"slices"
	"sort"
	"time"

	"fpmix/internal/config"
	"fpmix/internal/dataflow"
	"fpmix/internal/errbound"
	"fpmix/internal/faultinject"
	"fpmix/internal/prog"
	"fpmix/internal/replace"
	"fpmix/internal/shadow"
	"fpmix/internal/vm"
)

// Target describes the program under search.
type Target struct {
	Module *prog.Module
	// Verify is the application-defined verification routine: it receives
	// the program output of an instrumented run and decides acceptance.
	Verify func(out []vm.OutVal) bool
	// MaxSteps bounds each evaluation run (0 = vm default). Runs that trap
	// or exhaust the budget fail verification.
	MaxSteps uint64
	// Base optionally carries pre-set Ignore flags (e.g. RNG routines);
	// ignored instructions are excluded from the search.
	Base *config.Config
	// InstOpts are passed to the instrumenter.
	InstOpts replace.InstrumentOptions
}

// Options tune the search.
type Options struct {
	// Workers is the number of parallel evaluation workers (min 1).
	Workers int
	// Granularity is the finest level the search descends to
	// (config.KindInsn by default; KindBlock or KindFunc converge faster
	// with coarser results, §2.2).
	Granularity config.Kind
	// BinarySplit enables splitting large failed aggregates into two
	// intermediate partitions instead of expanding every child at once.
	BinarySplit bool
	// Prioritize orders the work queue by profiled execution weight.
	Prioritize bool
	// Engine selects the evaluation backend (default EngineFork: the
	// fork-point engine; EngineOff: the from-scratch oracle).
	Engine EngineMode
	// NoCompile keeps the fork engine but forces its slot machines
	// onto the per-step interpreter tier instead of the compiled
	// direct-threaded engine (fpsearch -nocompile). Differential-testing
	// escape hatch: results are byte-identical either way, only slower.
	NoCompile bool
	// NoPrune disables static candidate pruning (dataflow unsafe-sink
	// exclusion and zero-weight auto-passing), evaluating every piece
	// as the paper's original search does. Kept as a
	// differential-testing fallback; pruning is the default.
	NoPrune bool
	// NoProve disables the static error-bound prover (internal/errbound):
	// every piece verdict comes from evaluation again, as in the
	// pre-prover search. Differential-testing escape hatch (fpsearch
	// -noprove); proving is the default and never changes the final
	// configuration, only how many evaluations reaching it costs.
	NoProve bool

	// Shadow supplies a sensitivity profile from the shadow-value pass
	// (internal/shadow). When present the search runs sensitivity-guided:
	// the work queue is ordered by predicted single-precision safety —
	// lowest aggregated shadow error first — instead of raw execution
	// counts, and aggregates whose predicted error exceeds SensThreshold
	// by the safety margin skip their evaluation run and go straight to
	// binary splitting. Nil runs the counts-prioritized baseline.
	Shadow *shadow.Profile
	// SensThreshold is the verification tolerance the prediction gate
	// compares aggregated shadow error against; 0 disables gating
	// (ordering still applies).
	SensThreshold float64

	// Context, when non-nil, bounds the whole search: on cancellation
	// in-flight evaluations stop, no new ones launch, and Run returns the
	// best-so-far configuration with Result.Interrupted set (and a nil
	// error — an interrupt is an outcome, not a failure).
	Context context.Context
	// Timeout is the per-evaluation wall-clock bound (0 = none). A run
	// exceeding it settles as a deterministic FailTimeout verdict.
	Timeout time.Duration
	// Retries is the per-evaluation budget for retrying transient faults
	// (injected infrastructure failures, plus one confirmation re-run of
	// any failing verification verdict). Defaults to 3 when Chaos is
	// armed, else 0 — with 0 retries every verdict settles on its first
	// attempt, preserving baseline evaluation counts exactly.
	Retries int
	// Backoff is the initial delay between retries, doubling per retry
	// (default 25ms).
	Backoff time.Duration
	// Chaos arms deterministic fault injection on every evaluation: at
	// the injector's seeded rates, first attempts panic, hang, flip
	// passing verdicts or trap mid-run. Because only first attempts are
	// ever faulted, retries settle every verdict exactly as a fault-free
	// search would — chaos changes the road, never the destination.
	Chaos *faultinject.Injector
	// Checkpoint, when non-nil, journals every evaluated or proved verdict
	// as it settles and replays journaled verdicts instead of re-deriving, so
	// an interrupted search resumes where it died (fpsearch -checkpoint /
	// -resume).
	Checkpoint *Journal

	// Units, when non-nil, routes every evaluation unit — each piece and
	// the final union run — through the given evaluator instead of a
	// local UnitRunner. This is the sharding seam the fleet scheduler
	// (internal/fleet) drives: verdicts are deterministic per unit, so a
	// sharded search composes a final configuration byte-identical to an
	// in-process run's. Options.Workers still bounds the units in flight.
	Units UnitEvaluator
	// Cache, when non-nil, is a shared cross-search verdict cache
	// (internal/jobs): consulted after the memo table and checkpoint
	// journal, before the prover and evaluation; every evaluated or
	// proved verdict is stored back. The final-union verdict goes through
	// it too, under its own key, so a search whose every verdict is
	// cached evaluates nothing. Cache-served verdicts replay as
	// memo/proved provenance and count in Result.CacheHits.
	Cache VerdictCache
	// Observe, when non-nil, is called with every Eval record as it is
	// appended to Result.Evals, in settle order — the progress-streaming
	// hook the fpmixd status and stream endpoints consume. It is called
	// from the search's coordinating goroutine; implementations must not
	// block indefinitely.
	Observe func(Eval)

	// testEval, when set by in-package tests, overrides the evaluation
	// backend under the settler.
	testEval evaluator
	// testAnalyze, when set by in-package tests, replaces the error-bound
	// analysis the prover runs (to delay or count it).
	testAnalyze func(*prog.Module) (*errbound.Analysis, error)
}

// sensGateMargin is the safety factor between the verifier tolerance and
// the predicted error at which the gate declares an aggregate hopeless.
// The gate only trusts the prediction where it cannot overestimate:
//
//   - A full-coverage piece (every candidate instruction — the search
//     root, or a chain aggregate with the same address set). Lowering it
//     is exactly the whole-program single-precision run the carried
//     shadow simulates, so its aggregated global error is an exact
//     prediction of the run the gate skips.
//
//   - Any aggregate whose LOCAL error — each instruction re-run with
//     true operands rounded to single for one step — exceeds the gate. A
//     large local error means the operation itself does not fit in 24
//     bits of mantissa (a truncation needing more, a comparison of
//     values closer than single can distinguish), no matter what
//     produced its inputs.
//
// Sub-root pieces must not be gated on the global shadow error: the
// shadow is carried globally, so downstream instructions inherit
// upstream drift, and that mispredicts pieces which merely consume
// polluted values (EP's gaussian rejection loop diverges under randlc's
// drift yet passes in isolation; MG's V-cycle self-corrects inherited
// error). Each misprediction forces every child to be evaluated
// individually, inflating the tested count past the baseline. Predicted
// failures are never final: the piece still binary-splits and its
// children are evaluated, so a wrong prediction only flips the final
// configuration if the aggregate would have passed as a whole — which
// the differential ablation (experiments.Sens) checks stays impossible
// on every serial NAS kernel.
const sensGateMargin = 64

// Piece is one tested configuration: a subtree (or binary-split range) of
// the program replaced with single precision.
type Piece struct {
	Label  string
	Kind   config.Kind
	Addrs  []uint64
	Weight uint64 // profiled executions of the piece's instructions
	// PredErr is the piece's aggregated shadow error (max over its
	// instructions; 0 without a sensitivity profile): the predicted
	// relative error of a whole-program single run at the piece's
	// instructions. Orders the queue safest-first.
	PredErr float64
	// PredLocal is the piece's aggregated local (intrinsic, drift-free)
	// error: what the prediction gate compares against the tolerance.
	PredLocal float64
	subs      []*Piece
}

// Provenance classifies how a piece's verdict was obtained.
type Provenance uint8

// Verdict provenances.
const (
	// ProvEvaluated: an instrumented run decided the verdict.
	ProvEvaluated Provenance = iota
	// ProvMemo: replayed from the engine's memo table.
	ProvMemo
	// ProvPruned: passed by construction (never-executed piece).
	ProvPruned
	// ProvPredicted: failed by the sensitivity gate without a run.
	ProvPredicted
	// ProvCheckpoint: replayed from a resumed checkpoint journal.
	ProvCheckpoint
	// ProvProved: passed by the static error-bound prover — every
	// executed candidate in the piece was proved bit-exact in the target
	// format, so the evaluation run was skipped.
	ProvProved
)

var provNames = [...]string{"evaluated", "memo", "pruned", "predicted", "checkpoint", "proved"}

func (p Provenance) String() string {
	if int(p) < len(provNames) {
		return provNames[p]
	}
	return "provenance?"
}

// stage is one step of the verdict chain, in chain order: a piece's
// verdict comes from the first stage that settles it.
type stage uint8

const (
	stPrune   stage = iota // passes a never-executed piece by construction
	stGate                 // fails an aggregate the sensitivity gate predicts hopeless
	stMemo                 // replays a duplicate address set from the in-run memo table
	stJournal              // replays the interrupted search's verdict from a resumed journal
	stCache                // replays a prior job's verdict from the shared verdict cache
	stProve                // passes a piece the error-bound prover proves bit-exact
	stEval                 // decides the piece by running its evaluation unit
)

// Eval records one verdict the search reached: which piece, how the
// verdict was obtained, and — for evaluated pieces — the wall time of
// the evaluation run. Ablation tables regenerate from these without
// re-instrumenting the search.
type Eval struct {
	Label string
	Kind  config.Kind
	Insns int // piece size in candidate instructions
	Pass  bool
	Prov  Provenance
	Wall  time.Duration

	// Failure classifies a failing verdict (FailNone on a pass); Fault
	// carries the vm fault — kind and PC — that decided a FailTrap or
	// FailTimeout, and Stack the recovered goroutine stack of a
	// FailCrash.
	Failure Failure
	Fault   *vm.Fault
	Stack   string
	// Attempts is how many evaluation runs the verdict took (1 when
	// nothing was injected or confirmed); Nondet flags a verifier that
	// returned disagreeing verdicts across them (the pass won).
	Attempts int
	Nondet   bool

	// Forked marks a verdict reached by fork-point evaluation — run from
	// a restored snapshot of the shared prefix (or by reusing the donor
	// verdict outright) instead of from scratch. PrefixSaved is the
	// number of shared-prefix instructions that fork skipped.
	Forked      bool
	PrefixSaved uint64
}

// evalOf builds the Eval record of a verdict reached with provenance prov.
func evalOf(label string, kind config.Kind, insns int, prov Provenance, v Verdict) Eval {
	return Eval{
		Label: label, Kind: kind, Insns: insns,
		Pass: v.Pass, Prov: prov, Wall: v.Wall,
		Failure: v.Failure, Fault: v.Fault, Stack: v.Stack,
		Attempts: v.Attempts, Nondet: v.Nondet,
		Forked: v.Forked, PrefixSaved: v.PrefixSaved,
	}
}

// Result summarizes a completed search.
type Result struct {
	// Final is the union configuration of all individually passing pieces.
	Final *config.Config
	// FinalPass reports whether the union configuration itself passed
	// verification (it may not: precision decisions are not independent).
	FinalPass bool
	// Candidates is |Pd|, the number of replaceable instructions.
	Candidates int
	// Tested is the number of configurations evaluated (including the
	// final union run, unless the verdict cache served it).
	Tested int
	// MemoHits is the number of queued configurations whose address set
	// had already been evaluated and whose verdict was replayed from the
	// engine's memo table instead of re-running (binary-split re-splits
	// and single-child aggregate chains produce such duplicates), plus the
	// cache hits that were not proved.
	MemoHits int
	// CacheHits is the number of verdicts served by the shared
	// cross-search verdict cache (Options.Cache) instead of evaluation —
	// work inherited from prior jobs over the same image, replayed as
	// memo/proved provenance. The final-union verdict counts here too
	// when the cache serves it, so a resubmitted job reports Tested 0.
	CacheHits int
	// PrunedCandidates is the number of candidate instructions the
	// static analyses pre-decided: exact-integer sinks found by the
	// dataflow classification (excluded from the search tree; double in
	// every tested configuration and in Final) plus candidates the
	// profiling run never executed (pieces made up entirely of them
	// pass by construction and skip their evaluation runs).
	PrunedCandidates int
	// Unsafe lists, in address order, the candidates pruned as
	// exact-integer sinks by the dataflow classification.
	Unsafe []uint64
	// Predicted is the number of aggregates the sensitivity gate failed
	// without an evaluation run.
	Predicted int
	// Evals records every verdict in the order it was reached: verdict
	// provenance (evaluated, memo, pruned, predicted) plus per-piece
	// evaluation wall time.
	Evals []Eval
	// Passing lists the coarsest-granularity pieces that passed.
	Passing []*Piece
	// Crashed and TimedOut count evaluations settled as FailCrash /
	// FailTimeout; Retried counts retry attempts spent on transient
	// faults and verdict confirmations; Injected counts injected faults
	// absorbed under chaos.
	Crashed, TimedOut, Retried, Injected int
	// Nondeterministic lists the pieces whose verifier returned
	// disagreeing verdicts across attempts (the pass was kept).
	Nondeterministic []string
	// Resumed is the number of verdicts replayed from a checkpoint
	// journal instead of re-evaluated.
	Resumed int
	// Proved is the number of piece verdicts settled by the static
	// error-bound prover (including ones replayed from a checkpoint
	// journal's proved lines or served proved by the cache) instead of by
	// evaluation.
	Proved int
	// Forked is the number of verdicts reached by fork-point evaluation
	// (runs from a restored shared-prefix snapshot plus
	// donor-verdict reuses); PrefixInstrsSaved totals the shared-prefix
	// instructions those forks skipped re-executing.
	Forked            int
	PrefixInstrsSaved uint64
	// Interrupted reports the search was cancelled through
	// Options.Context: Final is the best-so-far union of the pieces that
	// had settled (never verified as a whole, so FinalPass is false).
	Interrupted bool
	// Stats carries the static/dynamic replacement percentages of Final.
	Stats replace.Stats
	// Profile is the uninstrumented execution profile used for weighting.
	// It may be the shadow profile's baseline map, shared with every
	// other search given that profile: read-only.
	Profile map[uint64]uint64
	// ProfileRuns counts the uninstrumented runs Run made to take that
	// profile: 0 when Options.Shadow carried its collection run's
	// baseline, else 1.
	ProfileRuns int
}

// Run executes the breadth-first search.
//
// On an evaluation error Run returns the error together with a partial
// Result carrying the pieces that had already passed (and the counters
// accumulated so far), so completed work is not discarded; Final is only
// set when the search runs to completion.
func Run(t Target, opts Options) (*Result, error) {
	s, err := newSearcher(t, opts)
	if err != nil {
		return nil, err
	}
	defer func() {
		if s.analyzed != nil {
			<-s.analyzed // an early return must not leave the analysis running
		}
	}()
	for s.q.Len() > 0 || s.inflight+s.parked > 0 {
		for s.q.Len() > 0 && s.inflight < s.opts.Workers && !s.interrupted() {
			p := heap.Pop(s.q).(*Piece)
			key := addrKey(p.Addrs)
			st, prov, v, ok := s.recall(p, key)
			ready := true
			if !ok && !s.opts.NoProve && len(p.Addrs) > 0 {
				st, prov, v = stProve, ProvProved, Verdict{Pass: true}
				ready, ok = s.prove(p, false)
			}
			if !ok {
				s.launch(p, key, !ready)
			} else if err := s.settle(p, key, st, prov, v); err != nil {
				return s.fail(err)
			}
		}
		if s.inflight+s.parked == 0 {
			if s.interrupted() {
				break
			}
			continue // memo replay may have emptied or refilled the queue
		}
		if err := s.arrive(<-s.results); err != nil {
			return s.fail(err)
		}
	}
	return s.compose()
}

// searcher is one search's coordinator state. Only Run's goroutine
// writes it, apart from bounds, which the analysis goroutine sets before
// it closes analyzed.
type searcher struct {
	t    Target
	opts Options // with defaults resolved
	res  *Result

	base      *config.Config
	ignored   map[uint64]bool
	zeroAddrs []uint64 // never-executed candidates (annotated in the final)
	root      *Piece
	gate      float64 // sensitivity-gate threshold; 0 disables the gate
	evaluate  func(EvalUnit) (Verdict, error)

	q        *pieceQueue
	memo     map[string]bool // settled address sets; nil for the EngineOff oracle
	results  chan evalRes    // launched units' verdicts and parked ones' returns
	inflight int             // launched units not yet arrived
	parked   int             // speculative verdicts waiting on the analysis

	bounds      *errbound.Analysis // nil when the analysis failed or diverged
	analyzed    chan struct{}      // closed once bounds is final; nil until started
	provedAddrs []uint64
}

// evalRes is a launched piece's verdict. A speculative piece was launched
// while the prover's analysis was pending; its verdict only stands if the
// analysis does not prove the piece.
type evalRes struct {
	p                   *Piece
	key                 string
	v                   Verdict
	err                 error
	speculative, parked bool
}

// newSearcher resolves the option defaults and everything the loop reads
// before the first piece settles: the base configuration and its ignored
// set, the profile, the pruned candidates, the root piece, the
// sensitivity gate and the unit evaluator.
func newSearcher(t Target, opts Options) (*searcher, error) {
	if t.Module == nil || t.Verify == nil {
		return nil, fmt.Errorf("search: target needs Module and Verify")
	}
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	if opts.Granularity == config.KindModule {
		opts.Granularity = config.KindInsn
	}
	s := &searcher{t: t, opts: opts, results: make(chan evalRes)}
	var err error
	if s.base, s.ignored, err = baseIgnored(t); err != nil {
		return nil, err
	}

	// Profiling run (uninstrumented) for prioritization weights and
	// dynamic statistics: the shadow pass's own when it carries one.
	profile, ran, err := profileRun(t, opts.Shadow)
	if err != nil {
		return nil, fmt.Errorf("search: profiling run failed: %w", err)
	}

	skip, unsafeAddrs := s.prune(profile)
	s.root = buildPiece(s.base.Root, skip, profile, opts.Granularity)
	if s.root == nil {
		return nil, fmt.Errorf("search: no replaceable instructions")
	}

	// Sensitivity guidance (on whenever a shadow profile is supplied):
	// annotate every piece with its aggregated predicted error, order the
	// queue safest-first, and gate hopeless aggregates.
	sens := opts.Shadow != nil
	if sens {
		setPredErr(s.root, opts.Shadow)
		s.gate = opts.SensThreshold * sensGateMargin
	}

	// Every unit — each piece and the final union — is evaluated through
	// one evaluator: Options.Units when set (the fleet, whose workers hold
	// the engines), else a local UnitRunner built from the same options.
	if opts.Units != nil {
		s.evaluate = opts.Units.EvaluateUnit
	} else {
		runner, err := newUnitRunner(t, opts, s.ignored)
		if err != nil {
			return nil, err
		}
		s.evaluate = runner.Evaluate
	}

	s.res = &Result{
		Profile: profile, ProfileRuns: ran, Unsafe: unsafeAddrs,
		PrunedCandidates: len(unsafeAddrs) + len(s.zeroAddrs),
		Candidates:       len(s.root.Addrs) + len(unsafeAddrs),
	}
	s.q = &pieceQueue{prioritize: opts.Prioritize, sens: sens}
	heap.Push(s.q, s.root)
	// Binary-split re-splits and single-child aggregate chains re-enqueue
	// decided address sets; the memo replays their verdicts.
	if opts.Engine != EngineOff {
		s.memo = make(map[string]bool)
	}
	return s, nil
}

// prune applies static pruning (the paper §2.5's "static data flow
// analysis", default on). It removes two candidate classes from the
// search tree before any evaluation:
//
//   - Exact-integer sinks, which the dataflow classification marks
//     as statically expected to break under lowering (EP's randlc
//     LCG). They stay double in every tested configuration — the
//     automated analogue of the paper's user marking randlc
//     "ignore", but conservative: the sites keep their double
//     wrappers. prune returns them in address order, and skip is the
//     ignored set plus them.
//
//   - Pieces consisting entirely of candidates the profiling run
//     never executed skip their evaluation: such a run is
//     bit-identical to the verified baseline (the piece's snippets
//     never execute, no flagged value is ever produced, and double
//     wrappers preserve double semantics exactly), so the verdict is
//     a pass by construction. The candidates stay in the tree — the
//     piece partitioning, and therefore every evaluated
//     configuration, is exactly the unpruned search's. prune records
//     them in zeroAddrs.
func (s *searcher) prune(profile map[uint64]uint64) (skip map[uint64]bool, unsafe []uint64) {
	if s.opts.NoPrune {
		return s.ignored, nil
	}
	skip = maps.Clone(s.ignored)
	if !s.t.InstOpts.NoAnalysis {
		// The module memoizes its dataflow analysis, so the local
		// runner's instrumenter shares it. A failed analysis leaves it
		// nil, which prunes no sink and keeps every snippet fully checked.
		ana := s.t.InstOpts.Analysis
		if ana == nil {
			ana, _ = dataflow.Analyze(s.t.Module)
		}
		if ana != nil {
			for _, a := range ana.UnsafeAddrs() {
				if !skip[a] {
					skip[a] = true
					unsafe = append(unsafe, a)
				}
			}
		}
	}
	for addr := range s.base.Effective() {
		if !skip[addr] && profile[addr] == 0 {
			s.zeroAddrs = append(s.zeroAddrs, addr)
		}
	}
	slices.Sort(s.zeroAddrs)
	return skip, unsafe
}

func (s *searcher) interrupted() bool { return s.opts.Context != nil && s.opts.Context.Err() != nil }

// recall runs the stages that need neither the prover nor a run, in
// chain order, and returns the first that settles the piece.
func (s *searcher) recall(p *Piece, key string) (stage, Provenance, Verdict, bool) {
	if !s.opts.NoPrune && p.Weight == 0 {
		// Entirely never-executed: pass by construction, no run.
		return stPrune, ProvPruned, Verdict{Pass: true}, true
	}
	full := len(p.Addrs) == len(s.root.Addrs)
	if s.gate > 0 && len(p.subs) > 0 &&
		((full && p.PredErr > s.gate) || p.PredLocal > s.gate) {
		// Predicted failure — skip the run and split now. Two sound
		// cases: a full-coverage piece (lowering it IS the
		// whole-program single run the carried shadow simulates, so
		// its global error is an exact prediction, not an
		// overestimate), or any aggregate whose local error shows an
		// instruction intrinsically past hope in single regardless
		// of what upstream produced.
		return stGate, ProvPredicted, Verdict{}, true
	}
	if pass, ok := s.memo[key]; ok {
		return stMemo, ProvMemo, Verdict{Pass: pass}, true
	}
	if s.opts.Checkpoint != nil {
		// After the memo: a journal verdict replays once, its in-run
		// duplicates stay memo hits as in a fresh search.
		if jv, ok := s.opts.Checkpoint.lookup(key); ok {
			prov := ProvCheckpoint
			if jv.proved {
				// The resumed search inherits the proof without
				// re-deriving it: the prover stays lazy, and the
				// provenance notes need only the profile.
				prov = ProvProved
			}
			return stJournal, prov, Verdict{Pass: jv.pass, Forked: jv.forked, PrefixSaved: jv.prefixSaved}, true
		}
	}
	if s.opts.Cache != nil {
		// The shared cross-job verdict cache: work inherited from
		// prior searches over the same image. After the checkpoint:
		// the job's own prior work is accounted as Resumed, not as
		// cache service.
		if cv, ok := s.opts.Cache.Lookup(key); ok {
			prov := ProvMemo
			if cv.Proved {
				prov = ProvProved
			}
			return stCache, prov, Verdict{Pass: cv.Pass}, true
		}
	}
	return 0, 0, Verdict{}, false
}

// prove is the prover stage. The static error-bound prover
// (internal/errbound) settles a piece without a run when every candidate
// it lowers either was proved bit-exact in the target format or never
// executes under the profile: the instrumented run would be
// bit-identical to the verified baseline, so the verdict is a pass by
// construction. The analysis is lazy — it only starts the first time a
// piece survives every cheaper stage (recall) — and runs beside
// evaluation, not in front of it: while it is pending, pieces reaching
// the prover launch as ordinary units marked speculative, and each
// speculative verdict is resolved against the finished analysis when it
// arrives. Which pieces settle as proved therefore depends only on the
// analysis, never on timing. An analysis the module already memoizes is
// taken at once, so no piece launches speculatively for it.
//
// With wait set, prove waits for the analysis. ready reports whether it
// has finished, and proved whether it proves p.
func (s *searcher) prove(p *Piece, wait bool) (ready, proved bool) {
	if s.analyzed == nil {
		s.analyzed = make(chan struct{})
		analyze := s.opts.testAnalyze
		if analyze == nil {
			analyze = func(m *prog.Module) (*errbound.Analysis, error) {
				return errbound.Analyze(m, errbound.Options{})
			}
		}
		run := func() {
			defer close(s.analyzed)
			if an, err := analyze(s.t.Module); err == nil && an.Converged {
				s.bounds = an
			}
		}
		if s.opts.testAnalyze == nil && errbound.Memoized(s.t.Module) {
			run()
		} else {
			go run()
		}
	}
	select {
	case <-s.analyzed:
	default:
		if !wait {
			return false, false
		}
		<-s.analyzed
	}
	for _, a := range p.Addrs {
		if s.bounds == nil || (!s.bounds.ExactAt(a) && s.res.Profile[a] != 0) {
			return true, false
		}
	}
	return true, s.bounds != nil
}

// launch evaluates p's unit on a goroutine that sends its verdict to results.
func (s *searcher) launch(p *Piece, key string, speculative bool) {
	s.inflight++
	go func() {
		v, err := s.evaluate(EvalUnit{Key: key, Label: p.Label, Kind: p.Kind, Addrs: p.Addrs})
		s.results <- evalRes{p: p, key: key, v: v, err: err, speculative: speculative}
	}()
}

// park holds a speculative verdict off the loop until the analysis has
// finished, then sends it back through results.
func (s *searcher) park(r evalRes) {
	s.parked++
	r.parked = true
	go func() {
		<-s.analyzed
		s.results <- r
	}()
}

// arrive takes one verdict off results and settles it, unless it must
// wait for the analysis.
func (s *searcher) arrive(r evalRes) error {
	if r.parked {
		s.parked--
	} else {
		s.inflight--
	}
	if r.speculative {
		if ready, _ := s.prove(r.p, false); !ready && s.inflight+s.parked > 0 {
			// Other units are running or waiting: keep settling and
			// launching while the analysis finishes. A proved piece's run
			// is bit for bit the verified baseline's, so a clean run that
			// fails verification is never proved and settles now; every
			// other verdict waits for the analysis off the loop. With no
			// other unit in flight the loop waits for it here, as a
			// single-worker search always does.
			if r.err != nil || r.v.Failure != FailVerify {
				s.park(r)
				return nil
			}
		} else if _, proved := s.prove(r.p, true); proved {
			// Resolve the speculation exactly as the prover stage would
			// have: a proved piece settles as proved whatever its unit
			// returned (a failing verdict or an error included).
			return s.settle(r.p, r.key, stProve, ProvProved, Verdict{Pass: true})
		}
	}
	if r.err != nil {
		return r.err
	}
	if r.v.Interrupted {
		// Cancelled before a verdict: the piece stays unsettled (and
		// is never journaled). The launch gate is closed, so inflight
		// drains and the loop exits.
		return nil
	}
	return s.settle(r.p, r.key, stEval, ProvEvaluated, r.v)
}

// settle is the one place a piece verdict lands, from whichever stage
// reached it.
func (s *searcher) settle(p *Piece, key string, st stage, prov Provenance, v Verdict) error {
	res := s.res
	proved := prov == ProvProved
	if st >= stProve {
		// Only verdicts this search derived are cached and journaled:
		// a replayed one is stored already or free to re-derive.
		if s.opts.Cache != nil {
			s.opts.Cache.Store(key, CachedVerdict{Pass: v.Pass, Proved: proved})
		}
		if j := s.opts.Checkpoint; j != nil {
			jv := journalVerdict{pass: v.Pass, forked: v.Forked, prefixSaved: v.PrefixSaved, proved: proved}
			if err := j.record(key, jv); err != nil {
				return fmt.Errorf("search: checkpoint write: %w", err)
			}
			if st == stEval && s.inflight+s.parked == 0 {
				// A write-batch boundary: every launched unit has
				// settled, so fsync the batch.
				if err := j.Sync(); err != nil {
					return fmt.Errorf("search: checkpoint sync: %w", err)
				}
			}
		}
	}
	if st >= stMemo && s.memo != nil {
		// Pruned and gated verdicts stay out: a gated aggregate and
		// its only child can share an address set, and the child must
		// still run.
		s.memo[key] = v.Pass
	}
	switch st {
	case stGate:
		res.Predicted++
	case stMemo:
		res.MemoHits++
	case stJournal:
		res.Resumed++
	case stCache:
		res.CacheHits++
		if !proved {
			res.MemoHits++
		}
	case stEval:
		res.tally(p.Label, v)
	}
	if proved {
		// The piece's executed candidates are exactly its proved sites
		// (the never-executed rest passed without needing the proof),
		// so a replayed proof marks them without the analysis.
		res.Proved++
		for _, a := range p.Addrs {
			if res.Profile[a] != 0 {
				s.provedAddrs = append(s.provedAddrs, a)
			}
		}
	}
	res.addEval(s.opts.Observe, evalOf(p.Label, p.Kind, len(p.Addrs), prov, v))
	if v.Pass {
		res.Passing = append(res.Passing, p)
	} else {
		s.expand(p)
	}
	return nil
}

// splitThreshold is the child count above which binary splitting applies.
const splitThreshold = 8

// expand queues the next round of pieces after p failed: either a binary
// split of its children or the children themselves (paper §2.2). A piece
// at the finest granularity has none: it is unreplaceable.
func (s *searcher) expand(p *Piece) {
	next := p.subs
	if s.opts.BinarySplit && len(next) > splitThreshold {
		mid := len(next) / 2
		next = []*Piece{
			mergePieces(p.Label+"/lo", p.Kind, next[:mid]),
			mergePieces(p.Label+"/hi", p.Kind, next[mid:]),
		}
	}
	for _, c := range next {
		heap.Push(s.q, c)
	}
}

// fail waits out every launched and parked unit, then surfaces the error
// alongside the partial result: pieces that already passed stay available
// to the caller instead of being discarded, and Final stays unset.
func (s *searcher) fail(err error) (*Result, error) {
	for n := s.inflight + s.parked; n > 0; n-- {
		<-s.results
	}
	sortPassing(s.res.Passing)
	s.res.Final = nil
	return s.res, err
}

// compose builds the final configuration, the union of every passing
// piece annotated with what the analyses decided, and runs the
// final-union unit on it.
func (s *searcher) compose() (*Result, error) {
	res := s.res
	final := s.base.Clone()
	for addr := range s.ignored {
		if n := final.NodeAt(addr); n != nil {
			n.Flag = config.Ignore
		}
	}
	for _, p := range res.Passing {
		for _, addr := range p.Addrs {
			if n := final.NodeAt(addr); n != nil {
				n.Flag = config.Single
			}
		}
	}
	// Record the classification in the configuration itself so a written
	// file documents what the analyses decided.
	for _, a := range s.provedAddrs {
		final.Annotate(a, "proved: bit-exact in single")
	}
	for _, a := range s.zeroAddrs {
		final.Annotate(a, "never executed")
	}
	for _, a := range res.Unsafe {
		final.Annotate(a, "pruned: exact-integer sink")
	}
	res.Final = final

	eff := final.Effective()
	res.Stats = replace.ComputeStats(s.t.Module, eff, res.Profile)
	sortPassing(res.Passing)

	if s.interrupted() {
		// Cancelled: Final is the best-so-far union of the pieces that
		// settled before the interrupt. It was never verified as a whole
		// (FinalPass stays false) — an interrupt is an outcome, not an
		// error.
		res.Interrupted = true
		return res, nil
	}

	// The final-union run is a unit like any piece, so a crash or
	// injected fault there is recovered like any other evaluation. It
	// carries just the single-flagged addresses: absent entries
	// instrument as double exactly like explicit ones. Its verdict is
	// never journaled (a resumed search re-checks composition), but it
	// goes through the shared cache under its own key: "final\x00" plus
	// the address-set key, whose length is never the multiple of 8 every
	// piece key is, so a union and a piece over the same addresses keep
	// apart. A job whose pieces all replay from the cache therefore runs
	// nothing at all.
	var singles []uint64
	for a, p := range eff {
		if p == config.Single {
			singles = append(singles, a)
		}
	}
	slices.Sort(singles)
	var finalKey string
	if s.opts.Cache != nil {
		finalKey = "final\x00" + addrKey(singles)
		if cv, ok := s.opts.Cache.Lookup(finalKey); ok {
			res.CacheHits++
			res.MemoHits++
			res.addEval(s.opts.Observe, evalOf("final union", config.KindModule, final.CountSingle(), ProvMemo, Verdict{Pass: cv.Pass}))
			res.FinalPass = cv.Pass
			return res, nil
		}
	}
	fv, err := s.evaluate(EvalUnit{Key: "final union", Label: "final union", Kind: config.KindModule, Addrs: singles, Final: true})
	if err != nil {
		return s.fail(err)
	}
	if fv.Interrupted {
		res.Interrupted = true
		return res, nil
	}
	if s.opts.Cache != nil {
		s.opts.Cache.Store(finalKey, CachedVerdict{Pass: fv.Pass})
	}
	res.tally("final union", fv)
	res.addEval(s.opts.Observe, evalOf("final union", config.KindModule, final.CountSingle(), ProvEvaluated, fv))
	res.FinalPass = fv.Pass
	return res, nil
}

// tally counts one evaluated verdict: the test itself plus its
// robustness metadata.
func (res *Result) tally(label string, v Verdict) {
	res.Tested++
	res.Retried += v.Retried
	res.Injected += v.Injected
	switch v.Failure {
	case FailCrash:
		res.Crashed++
	case FailTimeout:
		res.TimedOut++
	}
	if v.Nondet {
		res.Nondeterministic = append(res.Nondeterministic, label)
	}
	if v.Forked {
		res.Forked++
		res.PrefixInstrsSaved += v.PrefixSaved
	}
}

// addEval appends one Eval record and streams it to observe (if set).
func (res *Result) addEval(observe func(Eval), ev Eval) {
	res.Evals = append(res.Evals, ev)
	if observe != nil {
		observe(ev)
	}
}

// baseIgnored resolves the target's base configuration and its ignored
// address set. Shared by Run and NewUnitRunner so the coordinator and
// every fleet worker derive identical effective-precision maps.
func baseIgnored(t Target) (*config.Config, map[uint64]bool, error) {
	base := t.Base
	if base == nil {
		var err error
		base, err = config.FromModule(t.Module)
		if err != nil {
			return nil, nil, err
		}
	}
	ignored := make(map[uint64]bool)
	for addr, p := range base.Effective() {
		if p == config.Ignore {
			ignored[addr] = true
		}
	}
	return base, ignored, nil
}

// sortPassing orders passing pieces by their first address for
// deterministic, address-ordered results.
func sortPassing(pieces []*Piece) {
	sort.Slice(pieces, func(i, j int) bool { return pieces[i].Addrs[0] < pieces[j].Addrs[0] })
}

// profileRun returns the original program's per-address counts after
// checking its outputs against the target's verification, and the
// number of runs it made for them. A shadow profile collected from
// t.Module under t.MaxSteps already holds that run
// (shadow.Profile.Baseline); otherwise (no profile, a Read one, or
// another module or budget) the program runs here, on the compiled
// tier, whose per-block counters expand into exactly the per-step
// interpreter's counts.
func profileRun(t Target, sh *shadow.Profile) (map[uint64]uint64, int, error) {
	counts, out, ok := sh.Baseline(t.Module, t.MaxSteps)
	ran := 0
	if !ok {
		lp, err := vm.Link(t.Module)
		if err != nil {
			return nil, 0, err
		}
		m := lp.NewMachine()
		m.MaxSteps = t.MaxSteps
		if err := m.Run(); err != nil {
			return nil, 0, err
		}
		counts, out, ran = m.Profile(), m.Out, 1
	}
	if !t.Verify(out) {
		return nil, 0, fmt.Errorf("search: baseline run fails its own verification")
	}
	return counts, ran, nil
}

// buildPiece converts a configuration subtree into the piece hierarchy,
// excluding ignored instructions and stopping at the requested
// granularity.
func buildPiece(n *config.Node, ignored map[uint64]bool, profile map[uint64]uint64, gran config.Kind) *Piece {
	switch n.Kind {
	case config.KindInsn:
		if ignored[n.Addr] {
			return nil
		}
		return &Piece{
			Label:  fmt.Sprintf("insn %#x %s", n.Addr, n.Name),
			Kind:   config.KindInsn,
			Addrs:  []uint64{n.Addr},
			Weight: profile[n.Addr],
		}
	default:
		p := &Piece{Kind: n.Kind}
		switch n.Kind {
		case config.KindModule:
			p.Label = "module " + n.Name
		case config.KindFunc:
			p.Label = "func " + n.Name
		case config.KindBlock:
			p.Label = fmt.Sprintf("block %#x", n.Addr)
		}
		for _, ch := range n.Children {
			cp := buildPiece(ch, ignored, profile, gran)
			if cp == nil {
				continue
			}
			p.Addrs = append(p.Addrs, cp.Addrs...)
			p.Weight += cp.Weight
			if n.Kind != gran {
				p.subs = append(p.subs, cp)
			}
		}
		if len(p.Addrs) == 0 {
			return nil
		}
		if n.Kind == gran {
			p.subs = nil
		}
		return p
	}
}

func mergePieces(label string, kind config.Kind, subs []*Piece) *Piece {
	p := &Piece{Label: label, Kind: kind, subs: subs}
	for _, s := range subs {
		p.Addrs = append(p.Addrs, s.Addrs...)
		p.Weight += s.Weight
		if s.PredErr > p.PredErr {
			p.PredErr = s.PredErr
		}
		if s.PredLocal > p.PredLocal {
			p.PredLocal = s.PredLocal
		}
	}
	return p
}

// setPredErr annotates the piece tree with aggregated shadow errors.
func setPredErr(p *Piece, sh *shadow.Profile) {
	p.PredErr = sh.AggErr(p.Addrs)
	p.PredLocal = sh.AggLocalErr(p.Addrs)
	for _, s := range p.subs {
		setPredErr(s, sh)
	}
}

// pieceQueue is a heap: under sensitivity guidance it orders by
// predicted single-precision safety (ascending shadow error, so the
// pieces most likely to pass whole are tried first); otherwise by
// descending weight when prioritize is set; FIFO ties and fallback
// (implemented as ascending sequence numbers).
type pieceQueue struct {
	items      []*Piece
	seqs       []int
	nextSeq    int
	prioritize bool
	sens       bool
}

func (q *pieceQueue) Len() int { return len(q.items) }

func (q *pieceQueue) Less(i, j int) bool {
	if q.sens && q.items[i].PredErr != q.items[j].PredErr {
		return q.items[i].PredErr < q.items[j].PredErr
	}
	if q.prioritize && q.items[i].Weight != q.items[j].Weight {
		return q.items[i].Weight > q.items[j].Weight
	}
	return q.seqs[i] < q.seqs[j]
}

func (q *pieceQueue) Swap(i, j int) {
	q.items[i], q.items[j] = q.items[j], q.items[i]
	q.seqs[i], q.seqs[j] = q.seqs[j], q.seqs[i]
}

func (q *pieceQueue) Push(x any) {
	q.items = append(q.items, x.(*Piece))
	q.seqs = append(q.seqs, q.nextSeq)
	q.nextSeq++
}

func (q *pieceQueue) Pop() any {
	n := len(q.items)
	it := q.items[n-1]
	q.items[n-1] = nil // release the slot so the backing array can't pin it
	q.items = q.items[:n-1]
	q.seqs = q.seqs[:n-1]
	return it
}
