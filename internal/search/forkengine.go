package search

import (
	"errors"
	"fmt"
	"sync"

	"fpmix/internal/config"
	"fpmix/internal/dataflow"
	"fpmix/internal/replace"
	"fpmix/internal/vm"
)

// Fork-point evaluation.
//
// Every piece the search settles is the base configuration plus that
// piece's sites lowered to single precision, so all evaluations of one
// search share an enormous execution prefix: everything before the first
// dynamic execution of the first differing site is the donor (all-double)
// run verbatim. The fork engine exploits this once per search: it runs the
// donor configuration a single time with a breakpoint at every candidate
// slot, snapshots the machine at each site's first touch (copy-on-write,
// so sibling snapshots share unchanged pages), and then evaluates each
// candidate configuration by assembling it incrementally (cached
// fragments, only changed sites re-spliced), restoring the snapshot taken
// at its fork point, and running just the suffix.
//
// Correctness leans on the stable slotted layout: every configuration of
// the search places shared instructions at identical addresses, so the
// snapshot's program counter and instruction counts translate one-to-one
// onto the sibling program, and the restored run is step-for-step the run
// a from-scratch evaluation would have produced from that point
// (TestForkWholeMachineIdentity pins whole-machine equality).
//
// On top of the snapshots, the engine streamlines each assembly with a
// per-configuration flag-reachability analysis (dataflow.FlagAnalysis):
// only the evaluated piece's sites can stamp the replacement sentinel,
// so double sites the flow from those sites provably cannot reach keep
// their bare original instruction — no wrapper — and the run shrinks
// toward the uninstrumented program's length. A skipped wrapper is a
// checked no-op for that configuration (its flag checks could never
// fire), so outputs and verdicts are bit-identical to the fully wrapped
// evaluation the scratch path performs; only step and cycle counts
// differ. The donor is assembled the same way under the empty source
// set, and a sibling's fork point is the donor's first execution of a
// site the sibling lowers to single. Wrapper flips between the two
// assemblies — full, narrowed or elided — never constrain the fork
// point: every wrapper variant is architecturally the bare instruction
// until a flagged operand reaches it, and flags originate only at
// single sites, none of which have executed inside the prefix. The
// donor's bare prefix is therefore byte-for-byte the memory, register
// and output state the sibling's own assembly would reach (its step and
// cycle counts differ, as they already do between the two paths).
//
// Scratch rule: an evaluation with an armed injected trap, any retry
// attempt after an injected fault, and every evaluation of a search whose
// donor pass failed run from the entry point — never from a snapshot — so
// a fault can never leak state into a replay. The scratch run uses the
// same incremental assembly with wrapper elision off: every double site
// keeps its full wrapper, so steps, cycles and injected-trap indices are
// those of the per-configuration instrumented program.
//
// Fault rule: every verdict's fault PC, forked or scratch, is reported as
// a source-module address (StableProgram.SourceAddr): a PC in a slot is
// the site's candidate instruction, a PC in shared code its source.
type forkEngine struct {
	t         Target
	il        *vm.IncrementalLinker
	sites     []replace.StableSite
	oldAddrs  []uint64       // each site's candidate OldAddr, in site order
	siteIdx   map[uint64]int // candidate OldAddr -> site index
	addrIdx   map[uint64]int // stable slot address -> site index
	noCompile bool
	sourcePC  func(pc uint64) uint64 // StableProgram.SourceAddr

	// fa drives the per-configuration wrapper elision; nil (analysis
	// failed to build) keeps wrappers at every double site, as the
	// scratch path always does.
	fa *dataflow.FlagAnalysis

	// pool holds the evaluation machines, dirty-page tracked: a forked
	// run never snapshots, but tracking keeps every restore differential
	// — cheaper than re-copying the full page vector per evaluation,
	// since a run leaves the read-mostly pages clean. A scratch run
	// rewinds the same machines (ResetTo forgets page provenance).
	pool sync.Pool // *vm.Machine, dirty-page tracked

	mu         sync.Mutex
	donorTried bool
	donor      *donorState // nil after donorTried: forking unavailable
}

// donorState is the completed donor pass: the base configuration's
// verdict, its per-site variant vector (what every sibling is diffed
// against to find its fork point) and, per site, the step count and
// snapshot at its first dynamic execution (snap nil when the donor never
// executed the site).
type donorState struct {
	pass  bool
	steps uint64
	ch    []int
	touch []donorTouch
}

type donorTouch struct {
	steps uint64
	snap  *vm.Snapshot
}

func newForkEngine(t Target, noCompile bool) (*forkEngine, error) {
	snips, err := replace.Precompile(t.Module, t.InstOpts)
	if err != nil {
		return nil, err
	}
	sp, err := snips.Stable()
	if err != nil {
		return nil, err
	}
	vsites := make([]vm.IncrementalSite, len(sp.Sites))
	oldAddrs := make([]uint64, len(sp.Sites))
	siteIdx := make(map[uint64]int, len(sp.Sites))
	addrIdx := make(map[uint64]int, len(sp.Sites))
	for i, s := range sp.Sites {
		vsites[i] = vm.IncrementalSite{Addr: s.Addr, Variants: s.Variants}
		oldAddrs[i] = s.OldAddr
		siteIdx[s.OldAddr] = i
		addrIdx[s.Addr] = i
	}
	il, err := vm.NewIncrementalLinker(sp.Skeleton, vsites)
	if err != nil {
		return nil, err
	}
	fa, err := dataflow.NewFlagAnalysis(t.Module)
	if err != nil {
		fa = nil // no elision: every double site keeps its wrapper
	}
	e := &forkEngine{
		t: t, il: il,
		sites: sp.Sites, oldAddrs: oldAddrs, siteIdx: siteIdx, addrIdx: addrIdx,
		noCompile: noCompile, sourcePC: sp.SourceAddr, fa: fa,
	}
	e.pool.New = func() any { return &vm.Machine{} }
	return e, nil
}

// choices maps an effective-precision map to the per-site variant vector,
// surfacing per-site snippet-generation errors exactly when the
// configuration selects the failing variant (matching InstrumentMap).
// With elide set, double sites that the flag analysis proves clean under
// this configuration's single set take the bare variant instead of the
// wrapper — bit-identical outputs, roughly half the instructions — and
// sites with exactly one proven-clean operand take the narrowed wrapper
// checking only the other one, when the site has a shorter one.
func (e *forkEngine) choices(eff map[uint64]config.Precision, elide bool) ([]int, error) {
	var oc []dataflow.OperandClean // per site
	if elide && e.fa != nil {
		singles := make(map[uint64]bool)
		for a, p := range eff {
			if p == config.Single {
				singles[a] = true
			}
		}
		oc = e.fa.CleanOperandsUnder(singles, e.oldAddrs)
	}
	ch := make([]int, len(e.sites))
	for i := range e.sites {
		s := &e.sites[i]
		p, ok := eff[s.OldAddr]
		if !ok {
			p = config.Double
		}
		v := replace.VariantFor(p)
		switch {
		case v == replace.VariantSingle && s.SingleErr != nil:
			return nil, fmt.Errorf("replace: %w", s.SingleErr)
		case v == replace.VariantDouble && s.DoubleErr != nil:
			return nil, fmt.Errorf("replace: %w", s.DoubleErr)
		}
		if v == replace.VariantDouble && oc != nil {
			switch c := oc[i]; {
			case c.Src && c.Dst:
				v = replace.VariantBare
			case c.Dst && s.Variants[replace.VariantDoubleSrcOnly] != nil:
				v = replace.VariantDoubleSrcOnly
			case c.Src && s.Variants[replace.VariantDoubleDstOnly] != nil:
				v = replace.VariantDoubleDstOnly
			}
		}
		ch[i] = v
	}
	return ch, nil
}

// ensureDonor runs the donor pass once: the base configuration (eff with
// its Single sites at Double — identical for every request of one search)
// under dirty-page tracking, stopping at every candidate slot to snapshot
// the shared prefix. Any donor irregularity — assembly failure, a faulting
// base run — disables forking for the whole search rather than erroring:
// every evaluation then runs from scratch.
func (e *forkEngine) ensureDonor(eff map[uint64]config.Precision) *donorState {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.donorTried {
		return e.donor
	}
	e.donorTried = true

	// The donor's configuration is the request's with its Singles
	// stripped — the search's base configuration, identical for every
	// request of one search.
	donorEff := make(map[uint64]config.Precision)
	stops := make([]int, 0, len(e.sites))
	for i := range e.sites {
		if eff[e.sites[i].OldAddr] == config.Ignore {
			donorEff[e.sites[i].OldAddr] = config.Ignore
			continue // an ignored site is never lowered: never a fork point
		}
		stops = append(stops, i)
	}
	ch, err := e.choices(donorEff, true)
	if err != nil {
		return nil
	}
	// Only the donor splits blocks at the slot bases: its stops are then
	// served from the compiled dispatch loop. Siblings run Link's
	// partition and enter their fork slot mid-block.
	lp, err := e.il.Assemble(ch, stops...)
	if err != nil {
		return nil
	}
	m := &vm.Machine{}
	m.ResetTo(lp)
	m.TrackDirtyPages()
	m.MaxSteps = e.t.MaxSteps
	m.NoCompile = e.noCompile
	for _, i := range stops {
		m.StopAt(e.sites[i].Addr)
	}
	touch := make([]donorTouch, len(e.sites))
	for {
		err := m.Run()
		if err == nil {
			break
		}
		var st *vm.Stopped
		if !errors.As(err, &st) {
			return nil // the base configuration faults: nothing to fork from
		}
		i, ok := e.addrIdx[st.PC]
		if !ok {
			return nil
		}
		snap, serr := m.Snapshot()
		if serr != nil {
			return nil
		}
		touch[i] = donorTouch{steps: st.Steps, snap: snap}
		m.ClearStop(st.PC)
	}
	e.donor = &donorState{pass: e.t.Verify(m.Out), steps: m.Steps, ch: ch, touch: touch}
	return e.donor
}

func (e *forkEngine) evaluate(req evalRequest) (outcome, error) {
	// Chaos-armed runs and post-fault retries evaluate from scratch,
	// never from a snapshot.
	var d *donorState
	if req.trapAfter == 0 && req.attempt == 0 {
		d = e.ensureDonor(req.eff)
	}
	ch, err := e.choices(req.eff, d != nil)
	if err != nil {
		return outcome{}, err
	}
	var snap *vm.Snapshot
	if d != nil {
		// The fork point: the donor's first execution of a site this
		// configuration lowers to single. Wrapper flips never constrain
		// it — a wrapper is architecturally bare until a flagged operand
		// arrives, and flags originate only at single sites, so the bare
		// donor prefix is state-identical to the one this assembly would
		// compute itself.
		fork := -1
		for i := range ch {
			if ch[i] != replace.VariantSingle || d.touch[i].snap == nil {
				continue
			}
			if fork == -1 || d.touch[i].steps < d.touch[fork].steps {
				fork = i
			}
		}
		if fork == -1 {
			// No single site ever executes: the candidate's run computes
			// the donor run's states verbatim, so its verdict is the
			// donor's.
			return outcome{pass: d.pass, forked: true, prefixSaved: d.steps}, nil
		}
		snap = d.touch[fork].snap
	}

	lp, err := e.il.Assemble(ch)
	if err != nil {
		return outcome{}, err
	}
	m := e.pool.Get().(*vm.Machine)
	defer e.pool.Put(m)
	m.TrackDirtyPages()
	if snap == nil {
		m.ResetTo(lp)
	} else if err := m.RestoreTo(lp, snap); err != nil {
		return outcome{}, err
	}
	m.MaxSteps = e.t.MaxSteps
	m.NoCompile = e.noCompile
	if req.trapAfter > 0 {
		// After the reset: ResetTo disarms any previously armed trap.
		m.InjectTrapAfter(req.trapAfter)
	}
	out, err := finish(e.t, m, runMachine(m, req))
	if out.fault != nil {
		f := *out.fault
		f.PC = e.sourcePC(f.PC)
		out.fault = &f
	}
	if snap != nil {
		out.forked, out.prefixSaved = true, snap.Steps()
	}
	return out, err
}
