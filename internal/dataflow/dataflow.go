// Package dataflow implements the static analyses that the paper's §2.5
// leaves as future work: "streamline the machine code that is inserted"
// and "static data flow analysis" to skip unnecessary replacement
// wrappers. It turns the unsound global ablation knobs of
// internal/replace (LivenessElision, SkipDoubleSnippets) into per-site
// decisions proven over the program, in the style of Dyninst's binary
// register-liveness analysis.
//
// Three interprocedural analyses run over an instruction-level
// supergraph (intra-procedural control flow plus CALL edges into callee
// entries and RET edges back to every call-site continuation):
//
//   - Backward liveness of general-purpose registers and 64-bit XMM
//     lanes. A snippet may skip saving and restoring its scratch
//     registers (r14, r15, xmm14, xmm15) at sites where all four are
//     dead.
//
//   - Forward replaced-flag reachability: a may-analysis over a
//     clean/maybe-flagged lattice per location, under an "any
//     configuration" abstraction in which every candidate instruction
//     may be configured single and therefore stamp the 0x7FF4DEAD
//     sentinel into its register sources and destination. Operands
//     proven clean under every configuration need no flag-check
//     prologue, and double wrappers around such sites can be skipped
//     entirely.
//
//   - A conversion-site taint (reaching-definitions over CVTTSD2SI /
//     CVTSI2SD sites) that detects integer round-trips — float values
//     truncated to an integer and widened back — and classifies the
//     single-unsafe exact-integer sinks built on them, such as the EP
//     kernel's randlc 46-bit LCG (paper §2.1, the case the paper
//     resolves by having the user mark randlc "ignore").
//
// Memory is modeled as per-displacement 64-bit slots under a stable base
// register (a register assigned one immediate before any branch and
// never redefined — the high-level compiler's rbx data base), plus a
// summary cell for indexed or unresolvable accesses and an abstract
// cell for the PUSH/POP stack. The model assumes the usual stack
// discipline: CALL/RET traffic carries return addresses only, and the
// stack region does not alias the static data slots.
//
// Like the replacement scheme itself, the flag analysis assumes programs
// do not materialize the sentinel NaN pattern out of thin air (by
// crafted NaN payloads); the differential tests check the end-to-end
// property on every kernel.
package dataflow

import (
	"fmt"
	"sort"
	"sync/atomic"

	"fpmix/internal/isa"
	"fpmix/internal/prog"
)

// Location space: 16 GPRs, 32 XMM lanes, then per-displacement memory
// slots, one summary cell for unresolved accesses, and one stack cell.
const (
	locGPR   = 0  // + register number
	locLane  = 16 // + 2*xmm + lane
	nRegLocs = 16 + 32
)

// Site is the per-candidate analysis summary consumed by
// internal/replace when it makes per-site elision decisions.
type Site struct {
	Addr uint64

	// ScratchDead reports that the snippet scratch registers (r14, r15,
	// xmm14, xmm15) are all dead immediately after the instruction and
	// unreferenced by it, so a snippet needs no save/restore.
	ScratchDead bool

	// CleanInputs reports that no floating-point input of the
	// instruction can carry the replacement sentinel under any
	// configuration: flag-check prologues can be elided and double
	// wrappers skipped.
	CleanInputs bool

	// Unsafe marks an exact-integer sink (cyclic round-trip truncation,
	// its immediate feeder, or a low-order cancellation subtraction):
	// lowering it to single is statically expected to break integer
	// exactness, so the search prunes it from the candidate queue.
	Unsafe bool

	// Dead marks an instruction unreachable from the module entry in
	// the static call graph (e.g. a helper level never called).
	Dead bool
}

// RoundTrip is a detected truncate-then-widen integer round-trip.
type RoundTrip struct {
	Trunc  uint64 // CVTTSD2SI address
	Widen  uint64 // CVTSI2SD address consuming the truncated integer
	Cyclic bool   // the widened value can flow back into the truncation's input
}

// Result holds the analysis of one module.
type Result struct {
	Module *prog.Module
	Sites  map[uint64]Site
	Pairs  []RoundTrip

	// StableBase is the detected data-base register (valid if
	// HasStableBase); Slots is the number of tracked memory slots.
	StableBase    uint8
	HasStableBase bool
	Slots         int
}

// Site returns the summary for the candidate at addr; the zero Site
// (no elisions proven) if the address was not analyzed.
func (r *Result) Site(addr uint64) Site {
	if r == nil {
		return Site{}
	}
	return r.Sites[addr]
}

// UnsafeAddrs returns the addresses of all candidates classified as
// exact-integer sinks, in address order.
func (r *Result) UnsafeAddrs() []uint64 {
	var out []uint64
	for a, s := range r.Sites {
		if s.Unsafe {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// analysis carries the shared infrastructure of all passes.
type analysis struct {
	mod    *prog.Module
	instrs []isa.Instr
	idx    map[uint64]int // address -> instruction index
	fnOf   []int          // instruction index -> function index

	succs [][]int32
	preds [][]int32

	reachable []bool

	stableBase int           // -1 if none
	slotOf     map[int32]int // 8-aligned displacement -> slot index
	regionOf   map[int32]int // indexed-access base displacement -> region index
	extents    []extent      // sorted, disjoint array extents (module region table)
	nLocs      int           // nRegLocs + slots + regions + summary + stack + extents
}

// extent is one array's byte range off the stable base, from the
// module's region table.
type extent struct{ off, end int32 }

func (a *analysis) regionLoc(r int) int { return nRegLocs + len(a.slotOf) + r }
func (a *analysis) summaryLoc() int     { return nRegLocs + len(a.slotOf) + len(a.regionOf) }
func (a *analysis) stackLoc() int       { return a.summaryLoc() + 1 }
func (a *analysis) extentLoc(e int) int { return a.stackLoc() + 1 + e }

// analyses counts Analyze calls in this process.
var analyses atomic.Int64

// Analyses reports how many times Analyze has run in this process, so
// callers can check that a pipeline analyzes each module once.
func Analyses() int64 { return analyses.Load() }

// Analyze runs every analysis over m and returns the per-candidate
// summaries.
func Analyze(m *prog.Module) (*Result, error) {
	analyses.Add(1)
	a, err := build(m)
	if err != nil {
		return nil, err
	}
	live := a.liveness()
	flags := a.flagReach()
	pairs, taint := a.convTaint()
	unsafe := a.classify(pairs, taint)

	res := &Result{
		Module:        m,
		Sites:         make(map[uint64]Site),
		Pairs:         pairs,
		HasStableBase: a.stableBase >= 0,
		Slots:         len(a.slotOf),
	}
	if a.stableBase >= 0 {
		res.StableBase = uint8(a.stableBase)
	}
	for i, in := range a.instrs {
		if !isa.IsCandidate(in.Op) {
			continue
		}
		res.Sites[in.Addr] = Site{
			Addr:        in.Addr,
			ScratchDead: a.scratchDead(i, live),
			CleanInputs: a.cleanInputs(i, flags),
			Unsafe:      unsafe[i],
			Dead:        !a.reachable[i],
		}
	}
	return res, nil
}

// build constructs the instruction-level supergraph and the memory slot
// model.
func build(m *prog.Module) (*analysis, error) {
	a := &analysis{mod: m, idx: make(map[uint64]int), stableBase: -1}
	for fi, f := range m.Funcs {
		for _, in := range f.Instrs {
			a.idx[in.Addr] = len(a.instrs)
			a.instrs = append(a.instrs, in)
			a.fnOf = append(a.fnOf, fi)
		}
	}
	n := len(a.instrs)
	if n == 0 {
		return nil, fmt.Errorf("dataflow: empty module")
	}
	a.succs = make([][]int32, n)
	a.preds = make([][]int32, n)

	// Call-site continuations per callee function, for RET edges.
	conts := make(map[int][]int32) // function index -> continuation instrs
	for i, in := range a.instrs {
		if in.Op != isa.CALL {
			continue
		}
		ti, ok := a.idx[uint64(in.A.Imm)]
		if !ok {
			return nil, fmt.Errorf("dataflow: call to unmapped address %#x at %#x", in.A.Imm, in.Addr)
		}
		if c, ok := a.cont(i); ok {
			conts[a.fnOf[ti]] = append(conts[a.fnOf[ti]], c)
		}
	}

	addEdge := func(from, to int32) {
		a.succs[from] = append(a.succs[from], to)
		a.preds[to] = append(a.preds[to], from)
	}
	for i, in := range a.instrs {
		switch {
		case in.Op == isa.HALT:
			// no successors
		case in.Op == isa.JMP:
			t, ok := a.idx[uint64(in.A.Imm)]
			if !ok {
				return nil, fmt.Errorf("dataflow: branch to unmapped address %#x at %#x", in.A.Imm, in.Addr)
			}
			addEdge(int32(i), int32(t))
		case in.Op.IsCondBranch():
			t, ok := a.idx[uint64(in.A.Imm)]
			if !ok {
				return nil, fmt.Errorf("dataflow: branch to unmapped address %#x at %#x", in.A.Imm, in.Addr)
			}
			addEdge(int32(i), int32(t))
			if c, ok := a.cont(i); ok {
				addEdge(int32(i), c)
			}
		case in.Op == isa.CALL:
			t := a.idx[uint64(in.A.Imm)] // validated above
			addEdge(int32(i), int32(t))
		case in.Op == isa.RET:
			for _, c := range conts[a.fnOf[i]] {
				addEdge(int32(i), c)
			}
		default:
			if c, ok := a.cont(i); ok {
				addEdge(int32(i), c)
			}
		}
	}

	a.findStableBase()
	a.findSlots()
	a.buildExtents()
	a.nLocs = nRegLocs + len(a.slotOf) + len(a.regionOf) + 2 + len(a.extents)

	// Reachability from the module entry.
	a.reachable = make([]bool, n)
	if e, ok := a.idx[m.Entry]; ok {
		stack := []int{e}
		a.reachable[e] = true
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, s := range a.succs[i] {
				if !a.reachable[s] {
					a.reachable[s] = true
					stack = append(stack, int(s))
				}
			}
		}
	}
	return a, nil
}

// cont returns the fall-through continuation of instruction i: the next
// instruction by address within the same function.
func (a *analysis) cont(i int) (int32, bool) {
	if i+1 < len(a.instrs) && a.fnOf[i+1] == a.fnOf[i] {
		return int32(i + 1), true
	}
	return 0, false
}

// findStableBase detects a register assigned a single immediate in the
// straight-line prologue of the entry function and never written again
// anywhere in the module — the high-level compiler's data-base register.
func (a *analysis) findStableBase() {
	e, ok := a.idx[a.mod.Entry]
	if !ok {
		return
	}
	// Collect MOVRI defs in the linear prefix of the entry (stop at the
	// first control transfer).
	cand := map[int]bool{}
	for i := e; i < len(a.instrs) && a.fnOf[i] == a.fnOf[e]; i++ {
		in := a.instrs[i]
		if in.Op.IsBranch() || in.Op == isa.RET || in.Op == isa.HALT {
			break
		}
		if in.Op == isa.MOVRI && in.A.Kind == isa.KindGPR {
			cand[int(in.A.Reg)] = true
		}
	}
	if len(cand) == 0 {
		return
	}
	// Drop any candidate written anywhere else (including a second time
	// in the prologue itself, scanned per-instruction below).
	seen := map[int]int{} // reg -> def count
	for _, in := range a.instrs {
		for _, d := range gprDefs(in) {
			if cand[d] {
				seen[d]++
			}
		}
	}
	for r := range cand {
		if seen[r] != 1 {
			delete(cand, r)
		}
	}
	// Deterministically pick the lowest-numbered survivor.
	best := -1
	for r := range cand {
		if best < 0 || r < best {
			best = r
		}
	}
	a.stableBase = best
}

// findSlots discovers the 8-byte-aligned displacements accessed directly
// off the stable base, and the array regions accessed through an index
// register with a static base displacement. For the soundness-critical
// flag analysis everything unresolved flows through the summary cell;
// the value-flow (taint) passes additionally use the per-region cells.
func (a *analysis) findSlots() {
	a.slotOf = map[int32]int{}
	a.regionOf = map[int32]int{}
	if a.stableBase < 0 {
		return
	}
	add := func(d int32) {
		if _, ok := a.slotOf[d]; !ok {
			a.slotOf[d] = len(a.slotOf)
		}
	}
	for _, in := range a.instrs {
		for _, op := range []isa.Operand{in.A, in.B} {
			if op.Kind != isa.KindMem {
				continue
			}
			m := op.Mem
			if int(m.Base) != a.stableBase {
				continue
			}
			if m.HasIndex {
				if _, ok := a.regionOf[m.Disp]; !ok {
					a.regionOf[m.Disp] = len(a.regionOf)
				}
				continue
			}
			if m.Disp%8 != 0 {
				continue
			}
			add(m.Disp)
			if in.Op == isa.MOVAPD { // 16-byte access covers two slots
				add(m.Disp + 8)
			}
		}
	}
}

// buildExtents validates and adopts the module's region table: extents
// must be sane and pairwise disjoint or the whole table is dropped (the
// analyses then stay on the fully conservative memory model).
func (a *analysis) buildExtents() {
	if len(a.mod.Regions) == 0 || a.stableBase < 0 {
		return
	}
	exts := make([]extent, 0, len(a.mod.Regions))
	for _, r := range a.mod.Regions {
		if r.Off < 0 || r.Size <= 0 || r.Off+r.Size < r.Off {
			return
		}
		exts = append(exts, extent{off: r.Off, end: r.Off + r.Size})
	}
	sort.Slice(exts, func(i, j int) bool { return exts[i].off < exts[j].off })
	for i := 1; i < len(exts); i++ {
		if exts[i].off < exts[i-1].end {
			return
		}
	}
	a.extents = exts
}

// extentAt returns the index of the extent containing displacement d, or
// -1 when d lies outside every recorded array.
func (a *analysis) extentAt(d int32) int {
	i := sort.Search(len(a.extents), func(i int) bool { return a.extents[i].end > d })
	if i < len(a.extents) && a.extents[i].off <= d {
		return i
	}
	return -1
}

// memLocs resolves a memory operand to location indices for the
// soundness-critical flag analysis. For a direct stable-base access it
// returns the slot(s); otherwise every slot, region and array extent
// plus the summary and stack cells (an unresolved access may touch
// anything). wide selects 16-byte accesses (MOVAPD).
func (a *analysis) memLocs(m isa.MemRef, wide bool) (locs []int, direct bool) {
	if s, ok, wideOK := a.directSlot(m, wide); ok {
		locs = append(locs, s...)
		if !wide || wideOK {
			return locs, true
		}
		// fall through conservatively if the second half is untracked
	}
	for _, s := range a.slotOf {
		locs = append(locs, nRegLocs+s)
	}
	for _, r := range a.regionOf {
		locs = append(locs, a.regionLoc(r))
	}
	locs = append(locs, a.summaryLoc(), a.stackLoc())
	for e := range a.extents {
		locs = append(locs, a.extentLoc(e))
	}
	return locs, false
}

// memLocsPrec is memLocs refined by the module's array extents: an
// access through a known array's base displacement resolves to that
// array's private cell instead of the everything blob. Soundness rests
// on the region table's contract (hl.Array): indexed accesses through an
// array's displacement stay inside its allocation. Array cells are
// always weak — one element's store cannot clean the whole array.
func (a *analysis) memLocsPrec(m isa.MemRef, wide bool) (locs []int, direct bool) {
	if len(a.extents) == 0 || a.stableBase < 0 || int(m.Base) != a.stableBase {
		return a.memLocs(m, wide)
	}
	w := int32(8)
	if wide {
		w = 16
	}
	e := a.extentAt(m.Disp)
	if m.HasIndex {
		if e >= 0 {
			return []int{a.extentLoc(e)}, false
		}
		return a.memLocs(m, wide)
	}
	if e != a.extentAt(m.Disp+w-1) {
		return a.memLocs(m, wide) // straddles an array boundary
	}
	if e >= 0 {
		return []int{a.extentLoc(e)}, false
	}
	return a.memLocs(m, wide)
}

// directSlot resolves a direct stable-base access to its slot location(s).
func (a *analysis) directSlot(m isa.MemRef, wide bool) (locs []int, ok, wideOK bool) {
	if a.stableBase < 0 || m.HasIndex || int(m.Base) != a.stableBase || m.Disp%8 != 0 {
		return nil, false, false
	}
	s, found := a.slotOf[m.Disp]
	if !found {
		return nil, false, false
	}
	locs = append(locs, nRegLocs+s)
	wideOK = true
	if wide {
		s2, found2 := a.slotOf[m.Disp+8]
		if found2 {
			locs = append(locs, nRegLocs+s2)
		} else {
			wideOK = false
		}
	}
	return locs, true, wideOK
}

// valueLocs resolves a memory operand for the heuristic value-flow
// passes (conversion taint, producers, sink reach). Indexed stable-base
// accesses resolve to their array's region cell — assuming in-bounds
// indexing, which is a classification heuristic only, never a soundness
// input.
func (a *analysis) valueLocs(m isa.MemRef, wide bool) (locs []int, direct bool) {
	if s, ok, wideOK := a.directSlot(m, wide); ok && (!wide || wideOK) {
		return s, true
	}
	if a.stableBase >= 0 && m.HasIndex && int(m.Base) == a.stableBase {
		if r, ok := a.regionOf[m.Disp]; ok {
			return []int{a.regionLoc(r)}, false
		}
	}
	for _, s := range a.slotOf {
		locs = append(locs, nRegLocs+s)
	}
	for _, r := range a.regionOf {
		locs = append(locs, a.regionLoc(r))
	}
	locs = append(locs, a.summaryLoc(), a.stackLoc())
	return locs, false
}

// gprDefs returns the general-purpose registers fully overwritten by in.
func gprDefs(in isa.Instr) []int {
	switch in.Op {
	case isa.MOVRI, isa.MOVRR, isa.LOAD, isa.LEA, isa.POP:
		if in.A.Kind == isa.KindGPR {
			return []int{int(in.A.Reg)}
		}
	case isa.ADDR, isa.ADDI, isa.SUBR, isa.SUBI, isa.IMULR, isa.IMULI,
		isa.ANDR, isa.ANDI, isa.ORR, isa.ORI, isa.XORR, isa.XORI,
		isa.SHLI, isa.SHRI, isa.IDIVR:
		return []int{int(in.A.Reg)}
	case isa.MOVQ, isa.MOVHQ:
		if in.A.Kind == isa.KindGPR {
			return []int{int(in.A.Reg)}
		}
	case isa.CVTTSD2SI, isa.CVTTSS2SI:
		return []int{int(in.A.Reg)}
	case isa.SYSCALL:
		switch in.A.Imm {
		case isa.SysMPIRank, isa.SysMPISize:
			return []int{int(isa.RAX)}
		}
	}
	return nil
}

// FlagAnalysis is a reusable handle over one module's supergraph for
// re-running the replaced-flag reachability pass under restricted source
// sets. Analyze's CleanInputs answers the any-configuration question
// ("could this site ever see a flagged value?"); a search evaluating one
// piece at a time wants the much sharper per-configuration question
// ("could it see one when only these sites are single?"), whose clean
// set licenses assembling the bare original instruction — no wrapper at
// all — at every other double site. The handle is safe for concurrent
// use: each query allocates its own fixpoint state.
type FlagAnalysis struct {
	a *analysis
}

// NewFlagAnalysis builds the supergraph and memory model once, for many
// CleanOperandsUnder queries.
func NewFlagAnalysis(m *prog.Module) (*FlagAnalysis, error) {
	a, err := build(m)
	if err != nil {
		return nil, err
	}
	return &FlagAnalysis{a: a}, nil
}

// OperandClean is the per-operand refinement of a clean verdict: Src is
// the source (B) operand, Dst the destination operand read as a source
// by dst-is-source operations. An operand the instruction does not read
// as floating-point input is trivially clean, so Src && Dst is the
// whole-site verdict.
type OperandClean struct {
	Src bool
	Dst bool
}

// CleanOperandsUnder reports, for each address of sites, which of the
// candidate's floating-point inputs are proven unflagged when exactly the
// given candidates are configured single (out[k] is sites[k]'s; an
// address that is not a candidate gets the zero value). Src && Dst is
// the whole-site verdict: that double site's wrapper is a checked no-op
// for this configuration, so the bare original instruction is
// bit-identical to it. A wrapper's check on a single proven-clean
// operand is a guaranteed no-op too, so a narrowed wrapper that omits it
// (replace.DoubleSnippet with CleanSrcInput/CleanDstInput) is
// bit-identical to the full one. A nil singles set means no site single,
// not the any-configuration abstraction — use Analyze for that.
//
// The query runs with the extent-precise memory model (memLocsPrec):
// distinct arrays from the module's region table occupy distinct cells,
// so a single site storing into one array poisons that array alone.
func (fa *FlagAnalysis) CleanOperandsUnder(singles map[uint64]bool, sites []uint64) []OperandClean {
	if singles == nil {
		singles = map[uint64]bool{}
	}
	flags := fa.a.flagReachFor(singles, true)
	out := make([]OperandClean, len(sites))
	for k, addr := range sites {
		if i, ok := fa.a.idx[addr]; ok && isa.IsCandidate(fa.a.instrs[i].Op) {
			out[k] = fa.a.cleanOperandsPrec(i, flags, true)
		}
	}
	return out
}
