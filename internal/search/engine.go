package search

import (
	"context"
	"encoding/binary"
	"errors"
	"sort"

	"fpmix/internal/config"
	"fpmix/internal/replace"
	"fpmix/internal/vm"
)

// EngineMode selects the evaluation backend of a search.
type EngineMode uint8

// Engine modes. The zero value is fork-point evaluation, so searches are
// incremental by default.
const (
	// EngineFork evaluates configurations by fork-point evaluation:
	// snippets are compiled once per candidate instruction, one donor
	// run of the base configuration is snapshotted at every candidate
	// site's first execution, each sibling configuration is assembled
	// incrementally over a stable slotted layout and evaluated from its
	// fork-point snapshot on a kept evaluation slot, and duplicate address
	// sets are memoized. Chaos-armed runs, retries and a failed donor
	// pass run the same assembly, fully wrapped, from the entry point.
	// Deterministic failing verdicts skip the confirmation re-run
	// (replay would be exact). See forkengine.go.
	EngineFork EngineMode = iota
	// EngineOff evaluates every configuration from scratch through the
	// seed pipeline (replace.InstrumentMap + vm.New), with no memo. It is
	// the differential-testing oracle every engine is checked against.
	EngineOff
)

// evalRequest is one evaluation of a configuration.
type evalRequest struct {
	// eff is the full effective-precision map to instrument with.
	eff map[uint64]config.Precision
	// ctx, when non-nil, bounds the run: cancellation stops the machine
	// with a vm.FaultCancelled reported in the outcome.
	ctx context.Context
	// trapAfter, when >0, arms an injected vm trap at that executed-step
	// count (fault injection drives this; runs shorter than the site
	// complete clean).
	trapAfter uint64
	// attempt is the settler's attempt ordinal (0 for the first try).
	// The fork engine evaluates retries — attempts after an injected
	// fault — from scratch, never from a snapshot.
	attempt int
}

// outcome is an evaluation's verdict. A faulted run (NaN-driven
// divergence, runaway loop, cancellation, injected trap) is a failing
// verdict with the fault attached, not a search error.
type outcome struct {
	pass  bool
	fault *vm.Fault
	// forked marks a verdict reached from a fork-point snapshot (or by
	// reusing the donor verdict outright); prefixSaved is the number of
	// shared-prefix instructions the fork skipped re-executing.
	forked      bool
	prefixSaved uint64
}

// evaluator runs one configuration and reports whether it passes the
// target's verification routine. Implementations must be safe for
// concurrent use by the worker pool.
type evaluator interface {
	evaluate(req evalRequest) (outcome, error)
}

// finish maps a completed machine run to an outcome: faults become
// failing verdicts carrying the fault, clean runs are verified.
func finish(t Target, m *vm.Machine, err error) (outcome, error) {
	if err != nil {
		var f *vm.Fault
		if errors.As(err, &f) {
			return outcome{fault: f}, nil
		}
		return outcome{}, err
	}
	return outcome{pass: t.Verify(m.Out)}, nil
}

// runMachine runs m under the request's cancellation bound, if any.
func runMachine(m *vm.Machine, req evalRequest) error {
	if req.ctx != nil {
		return m.RunContext(req.ctx)
	}
	return m.Run()
}

// newEvaluator builds the backend selected by mode. noCompile forces the
// fork engine's machines onto the per-step interpreter tier (the legacy
// backend never compiles).
func newEvaluator(t Target, mode EngineMode, noCompile bool) (evaluator, error) {
	if mode == EngineOff {
		return legacyEvaluator{t: t}, nil
	}
	return newForkEngine(t, noCompile)
}

// legacyEvaluator is the unmodified seed path: full snippet regeneration,
// layout and a fresh machine per evaluation.
type legacyEvaluator struct{ t Target }

func (e legacyEvaluator) evaluate(req evalRequest) (outcome, error) {
	inst, err := replace.InstrumentMap(e.t.Module, req.eff, e.t.InstOpts)
	if err != nil {
		return outcome{}, err
	}
	m, err := vm.New(inst)
	if err != nil {
		return outcome{}, err
	}
	m.MaxSteps = e.t.MaxSteps
	if req.trapAfter > 0 {
		m.InjectTrapAfter(req.trapAfter)
	}
	return finish(e.t, m, runMachine(m, req))
}

// effFor expands a piece's address set into the full effective-precision
// map an evaluator consumes.
func effFor(addrs []uint64, ignored map[uint64]bool) map[uint64]config.Precision {
	eff := make(map[uint64]config.Precision, len(addrs)+len(ignored))
	for _, a := range addrs {
		eff[a] = config.Single
	}
	for a := range ignored {
		eff[a] = config.Ignore
	}
	return eff
}

// addrKey builds the memoization key for an address set: the byte image
// of the sorted addresses. Piece address sets come out of the
// configuration tree in ascending order, so the sort is normally a no-op
// verification pass.
func addrKey(addrs []uint64) string {
	sorted := addrs
	if !sort.SliceIsSorted(addrs, func(i, j int) bool { return addrs[i] < addrs[j] }) {
		sorted = append([]uint64(nil), addrs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	}
	b := make([]byte, 8*len(sorted))
	for i, a := range sorted {
		binary.LittleEndian.PutUint64(b[i*8:], a)
	}
	return string(b)
}
