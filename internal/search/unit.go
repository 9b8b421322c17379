package search

import (
	"context"
	"time"

	"fpmix/internal/config"
	"fpmix/internal/vm"
)

// The evaluation-unit seam: search.Run's trajectory (queue, expansion,
// memo, checkpoint, prover, final composition) is deterministic given
// the per-piece verdicts, and each verdict is a deterministic function
// of the piece's address set alone. A unit is therefore the natural
// sharding granularity — any executor that returns faithful verdicts
// composes a final configuration byte-identical to an in-process run.
// search.Run evaluates every unit through a UnitRunner unless
// Options.Units routes them elsewhere — the fleet scheduler
// (internal/fleet) plugs in there, and UnitRunner is the execution side
// a worker wraps.

// EvalUnit is one evaluation unit: an independently evaluable
// configuration of the search (a piece, or the final union run).
type EvalUnit struct {
	// Key is the unit's canonical identity — the byte image of its
	// sorted address set (addrKey), or the literal "final union" for the
	// final composition run. It keys memoization, checkpoint journals,
	// the cross-job verdict cache and chaos decisions, so an external
	// executor must pass it through unchanged.
	Key string
	// Label and Kind describe the piece for Eval records.
	Label string
	Kind  config.Kind
	// Addrs is the set of candidate addresses the unit lowers to single
	// precision (the target's ignored set rides along implicitly:
	// UnitRunner re-derives it from the same Target).
	Addrs []uint64
	// Final marks the final-union verification run.
	Final bool
	// ForkSite is the unit's first single site (its lowest candidate
	// address). Under fork-point evaluation every unit resumes from the
	// donor snapshot taken at that site, so schedulers can use it as an
	// affinity key: units sharing a ForkSite restore from the same
	// snapshot, and routing them to the worker that already holds it
	// amortizes the donor run remotely the way it does in-process. Zero
	// when the unit lowers nothing.
	ForkSite uint64
	// Weight is a relative cost hint — the number of sites the unit
	// lowers. The final-union run carries every surviving single and is
	// usually the heaviest unit of its search, so schedulers avoid
	// packing it into a batch behind lighter units.
	Weight int
}

// newEvalUnit builds a unit for an address set, deriving the ForkSite
// and Weight scheduling hints from the set itself.
func newEvalUnit(key, label string, kind config.Kind, addrs []uint64, final bool) EvalUnit {
	u := EvalUnit{Key: key, Label: label, Kind: kind, Addrs: addrs, Final: final, Weight: len(addrs)}
	for _, a := range addrs {
		if u.ForkSite == 0 || a < u.ForkSite {
			u.ForkSite = a
		}
	}
	return u
}

// Verdict is the settled outcome of an evaluation unit, after retries,
// confirmation and crash recovery — everything Eval records and
// robustness counters need.
type Verdict struct {
	Pass    bool
	Failure Failure
	Fault   *vm.Fault // the trap that decided a FailTrap/FailTimeout verdict
	Stack   string    // recovered stack of a FailCrash

	Attempts int  // evaluation attempts consumed (≥1)
	Retried  int  // attempts beyond the first (transient retries + confirmations)
	Injected int  // injected faults absorbed along the way
	Nondet   bool // the verifier returned disagreeing verdicts; pass wins

	// Forked and PrefixSaved carry the deciding attempt's fork
	// provenance: whether it ran from a fork-point snapshot and how many
	// shared-prefix instructions that skipped.
	Forked      bool
	PrefixSaved uint64

	Wall time.Duration // total across attempts, including backoff

	// Interrupted reports the unit was cancelled before a verdict; the
	// piece stays unsettled and must not be recorded.
	Interrupted bool
}

// UnitEvaluator evaluates units somewhere — in process, or sharded
// across a worker fleet. Implementations must be safe for concurrent
// use: the search keeps Options.Workers units in flight.
type UnitEvaluator interface {
	EvaluateUnit(u EvalUnit) (Verdict, error)
}

// VerdictCache is a shared cross-search verdict cache, keyed by the
// unit key within a scope the caller derives from the image fingerprint
// (internal/jobs ties the scope to module image + base configuration +
// verifier + step budget, so a cached verdict is only ever replayed
// into a search it is valid for). The search consults it after its own
// memo table and checkpoint journal and stores every evaluated or
// proved verdict back.
type VerdictCache interface {
	Lookup(key string) (CachedVerdict, bool)
	Store(key string, v CachedVerdict)
}

// CachedVerdict is one cache entry: the verdict, and whether it was
// settled by the static error-bound prover (replayed as ProvProved so
// provenance annotations survive the cache).
type CachedVerdict struct {
	Pass   bool
	Proved bool
}

// UnitRunner executes evaluation units locally: the engine + settler
// stack search.Run evaluates every unit through when Options.Units is
// nil, exposed so fleet workers evaluate a job's units exactly as the
// serial search would. Safe for concurrent use.
type UnitRunner struct {
	st      *settler
	ignored map[uint64]bool
}

// NewUnitRunner builds a unit runner for the target with the same
// evaluation options (engine mode, timeout, retry budget, chaos
// injector, cancellation context) a search.Run with those Options would
// use, so unit verdicts match the serial search's exactly.
func NewUnitRunner(t Target, opts Options) (*UnitRunner, error) {
	_, ignored, err := baseIgnored(t)
	if err != nil {
		return nil, err
	}
	return newUnitRunner(t, opts, ignored)
}

// newUnitRunner builds the evaluation stack for a target whose ignored
// set is already resolved: the one place evaluation options are
// defaulted and the settler is assembled.
func newUnitRunner(t Target, opts Options, ignored map[uint64]bool) (*UnitRunner, error) {
	if opts.Chaos != nil && opts.Retries == 0 {
		// Chaos without a retry budget could never terminate cleanly;
		// injected faults are healed by retries (and only first attempts
		// are faulted, so 1 would do — 3 leaves slack for real flakes).
		opts.Retries = 3
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	ev := opts.testEval
	if ev == nil {
		var err error
		if ev, err = newEvaluator(t, opts.Engine, opts.NoCompile); err != nil {
			return nil, err
		}
	}
	// The settler wraps every evaluation with the failure model: panic
	// recovery, the per-attempt wall-clock bound, and bounded retry of
	// transient (injected) faults — see robust.go. Fork-point evaluation
	// replays deterministically, so a failing verdict needs no
	// confirmation re-run — unless chaos is armed, where confirmation is
	// what heals injected flaky verdicts.
	_, forking := ev.(*forkEngine)
	st := &settler{
		ev: ev, ctx: ctx,
		timeout: opts.Timeout, retries: opts.Retries,
		backoff: opts.Backoff, chaos: opts.Chaos,
		noConfirm: forking && opts.Chaos == nil,
	}
	return &UnitRunner{st: st, ignored: ignored}, nil
}

// Evaluate runs one unit to a settled verdict. An error is
// infrastructural (instrumentation or linking broke) and aborts the
// search the unit belongs to.
func (r *UnitRunner) Evaluate(u EvalUnit) (Verdict, error) {
	return r.st.settle(effFor(u.Addrs, r.ignored), u.Key)
}
