package errbound

import (
	"math"

	"fpmix/internal/dataflow"
	"fpmix/internal/isa"
	"fpmix/internal/prog"
)

// Options configure Analyze.
type Options struct {
	// Format is the lowered precision to prove against (default Single).
	Format Format
	// Budget bounds the number of abstract transfers per fixpoint pass;
	// exhausting it abandons all proofs (sound). Default 4M.
	Budget int
	// WidenDelay is the number of joins an anchor absorbs before
	// widening begins. Default 32.
	WidenDelay int
	// Ranges optionally seeds float range facts on data-slot
	// displacements (e.g. from a verifier's input specification).
	Ranges map[int32][2]float64
}

const (
	defaultBudget     = 4_000_000
	defaultWidenDelay = 32
	nGPR              = 16
	nRegLoc           = 48 // 16 GPRs + 16 XMM registers x 2 lanes
)

func gprLoc(r uint8) int           { return int(r) }
func xmmLoc(x uint8, lane int) int { return nGPR + 2*int(x) + lane }

// state is the abstract machine state at one program point: one aval per
// register location and memory cell, plus the per-GPR record of which
// slot cell the register was last loaded from (so branch refinement of
// the register also narrows the slot — the mechanism that makes counted
// loops converge without widening).
type state struct {
	vals  []aval
	alias [nGPR]int32
}

func (s *state) clone() *state {
	c := &state{vals: make([]aval, len(s.vals))}
	c.copyFrom(s)
	return c
}

// copyFrom overwrites s with o (same location count).
func (s *state) copyFrom(o *state) {
	copy(s.vals, o.vals)
	s.alias = o.alias
}

func (s *state) joinFrom(o *state) bool {
	changed := false
	for i := range s.vals {
		if s.vals[i].join(&o.vals[i]) {
			changed = true
		}
	}
	for r := range s.alias {
		if s.alias[r] != o.alias[r] && s.alias[r] != -1 {
			s.alias[r] = -1
			changed = true
		}
	}
	return changed
}

// cmpFact remembers the most recent CMPR/CMPI on the current straight
// line, for conditional-branch refinement. It never crosses an anchor.
type cmpFact struct {
	valid bool
	aReg  uint8
	bReg  uint8
	imm   int64
	isImm bool
}

// clampInfo is a proven accumulator clamp on a memory cell's float view.
type clampInfo struct{ lo, hi float64 }

// siteRec accumulates the post-fixpoint operand and result avals seen at
// one candidate instruction.
type siteRec struct {
	a, b, r aval
	seen    bool
}

// storeRec accumulates the raw (pre-clamp) stored aval and target cells
// of one store instruction.
type storeRec struct {
	cells []int
	val   aval
	seen  bool
}

type analyzer struct {
	g     *dataflow.Graph
	mod   *prog.Module
	cells []dataflow.MemCell
	f     Format
	opts  Options

	nloc     int
	anchor   []bool
	entryIdx int
	summary  int // cell id of the everything blob, -1 if absent
	stack    int // cell id of the PUSH/POP stack, -1 if absent

	// Worklist state, indexed by instruction: in[i] is anchor i's
	// in-state (nil until first reached), joins[i] how many joins it
	// absorbed, queued[i] whether it is on the queue.
	in     []*state
	joins  []int
	queue  []int
	queued []bool
	budget int

	// Scratch states reused across the fixpoint so no transfer, edge or
	// join allocates: the state a walk mutates, the per-edge refined
	// copy, and the pre-join copy widening compares against.
	walkSt, edgeSt, prevSt *state

	// memCells memoizes Graph.MemCells, which allocates per call.
	memCells map[memKey]memCellsVal

	gen     uint64
	cellGen []uint64

	cellInit []aval
	execB    []float64 // per-instr static execution bound; 0 = unknown
	clamps   map[int]clampInfo

	sawWild     bool // store that may hit arbitrary memory
	sawMPIWrite bool // syscall that rewrites memory

	recording bool
	sites     map[int]*siteRec
	stores    map[int]*storeRec

	transfers int
	converged bool
}

type memKey struct {
	m    isa.MemRef
	wide bool
}

type memCellsVal struct {
	cells  []int
	strong bool
}

// cellsOf is Graph.MemCells, memoized per (operand, width). The returned
// slice is shared and must not be modified.
func (az *analyzer) cellsOf(m isa.MemRef, wide bool) ([]int, bool) {
	k := memKey{m, wide}
	if v, ok := az.memCells[k]; ok {
		return v.cells, v.strong
	}
	cells, strong := az.g.MemCells(m, wide)
	az.memCells[k] = memCellsVal{cells, strong}
	return cells, strong
}

// Analysis is the result of Analyze: a per-candidate-site verdict table.
type Analysis struct {
	// Format the proofs target.
	Format Format
	// Sites maps every candidate instruction address to its bound.
	Sites map[uint64]SiteBound
	// Converged is false when the analysis ran out of budget; all
	// verdicts are then "not exact" (sound).
	Converged bool
	// Clamped counts memory cells with a proven accumulator clamp.
	Clamped int
	// Transfers is the total abstract-transfer work performed.
	Transfers int
}

// Analyze runs the sound error-bound analysis on the all-double module m
// and returns per-candidate-site exactness verdicts.
func Analyze(m *prog.Module, opts Options) (*Analysis, error) {
	g, err := dataflow.BuildGraph(m)
	if err != nil {
		return nil, err
	}
	if opts.Format.MantBits == 0 {
		opts.Format = Single
	}
	if opts.Budget <= 0 {
		opts.Budget = defaultBudget
	}
	if opts.WidenDelay <= 0 {
		opts.WidenDelay = defaultWidenDelay
	}
	az := &analyzer{g: g, mod: m, f: opts.Format, opts: opts}
	az.prepare()

	ok := az.pass()
	if ok {
		az.collect()
		az.inferClamps()
		for iter := 0; ok && len(az.clamps) > 0; iter++ {
			ok = az.pass()
			if !ok {
				break
			}
			az.collect()
			dropped := az.verifyClamps()
			if len(dropped) == 0 {
				break // every clamp verified; records are final
			}
			if iter >= 4 {
				az.clamps = map[int]clampInfo{}
			} else {
				for _, c := range dropped {
					delete(az.clamps, c)
				}
			}
			if len(az.clamps) == 0 {
				// Re-derive the records without any clamp in force.
				ok = az.pass()
				if ok {
					az.collect()
				}
				break
			}
		}
	}
	az.converged = ok
	return az.buildAnalysis(), nil
}

func (az *analyzer) prepare() {
	az.cells = az.g.Cells()
	az.nloc = nRegLoc + len(az.cells)
	az.summary = -1
	az.stack = -1
	for c, mc := range az.cells {
		switch mc.Kind {
		case dataflow.CellSummary:
			az.summary = c
		case dataflow.CellStack:
			az.stack = c
		}
	}

	n := az.g.Len()
	az.anchor = make([]bool, n)
	ei, _ := az.g.Entry()
	az.entryIdx = ei
	for i := 0; i < n; i++ {
		preds := az.g.Preds(i)
		if len(preds) != 1 || i == ei {
			az.anchor[i] = true
			continue
		}
		if len(az.g.Succs(int(preds[0]))) > 1 {
			az.anchor[i] = true
		}
	}

	az.cellInit = make([]aval, len(az.cells))
	for c, mc := range az.cells {
		switch mc.Kind {
		case dataflow.CellSlot:
			az.cellInit[c] = fromBits(az.dataBits(mc.Off), -1)
			if r, ok := az.opts.Ranges[mc.Off]; ok {
				v := az.cellInit[c]
				v.lo, v.hi = r[0], r[1]
				v.grid = 0
				v.mayNaN = false
				v.topI()
				az.cellInit[c] = v
			}
		case dataflow.CellExtent:
			v := fromBits(az.dataBits(mc.Off), -1)
			for off := mc.Off + 8; off+8 <= mc.Off+mc.Size; off += 8 {
				w := fromBits(az.dataBits(off), -1)
				v.join(&w)
			}
			az.cellInit[c] = v
		default:
			az.cellInit[c] = top()
		}
	}

	az.execB = computeExecBounds(az.mod, az.g)
	az.clamps = map[int]clampInfo{}
	az.memCells = map[memKey]memCellsVal{}
	az.walkSt = &state{vals: make([]aval, az.nloc)}
	az.edgeSt = &state{vals: make([]aval, az.nloc)}
	az.prevSt = &state{vals: make([]aval, az.nloc)}
}

// dataBits reads the 8 bytes at data-segment offset off (zero beyond the
// initialized image, like the VM's zeroed memory).
func (az *analyzer) dataBits(off int32) uint64 {
	var bits uint64
	for k := 0; k < 8; k++ {
		idx := int64(off) + int64(k)
		var b byte
		if idx >= 0 && idx < int64(len(az.mod.Data)) {
			b = az.mod.Data[idx]
		}
		bits |= uint64(b) << (8 * k)
	}
	return bits
}

func (az *analyzer) initialState() *state {
	st := &state{vals: make([]aval, az.nloc)}
	for i := range st.vals {
		st.vals[i] = top()
	}
	for r := range st.alias {
		st.alias[r] = -1
	}
	sp := az.mod.MemSize &^ 15
	st.vals[gprLoc(isa.RSP)] = fromBits(sp, -1)
	for c := range az.cells {
		st.vals[nRegLoc+c] = az.cellInit[c]
	}
	return st
}

// pass runs one fixpoint iteration to convergence (or budget
// exhaustion), honoring the current clamp set.
func (az *analyzer) pass() bool {
	n := az.g.Len()
	az.in = make([]*state, n)
	az.joins = make([]int, n)
	az.queue = az.queue[:0]
	az.queued = make([]bool, n)
	az.budget = az.opts.Budget
	az.gen = uint64(len(az.cells)) + 1
	az.cellGen = make([]uint64, len(az.cells))
	for c := range az.cellGen {
		az.cellGen[c] = uint64(c) + 1
	}

	az.in[az.entryIdx] = az.initialState()
	az.enqueue(az.entryIdx)
	for len(az.queue) > 0 {
		i := az.queue[len(az.queue)-1]
		az.queue = az.queue[:len(az.queue)-1]
		az.queued[i] = false
		az.walkSt.copyFrom(az.in[i])
		az.walk(i, az.walkSt)
		if az.budget < 0 {
			return false
		}
	}
	return true
}

// collect re-walks every converged anchor chain once, recording
// candidate-site avals and store records at the fixpoint.
func (az *analyzer) collect() {
	az.sites = map[int]*siteRec{}
	az.stores = map[int]*storeRec{}
	az.recording = true
	az.budget = az.g.Len() + az.opts.Budget
	for i, st := range az.in {
		if st != nil {
			az.walkSt.copyFrom(st)
			az.walk(i, az.walkSt)
		}
	}
	az.recording = false
}

func (az *analyzer) enqueue(i int) {
	if !az.queued[i] {
		az.queued[i] = true
		az.queue = append(az.queue, i)
	}
}

// walk executes the straight-line chain beginning at anchor i, joining
// the resulting states into successor anchors. It mutates st, which
// joinAnchor never retains.
func (az *analyzer) walk(i int, st *state) {
	var cmp cmpFact
	for {
		az.budget--
		az.transfers++
		if az.budget < 0 {
			return
		}
		in := az.g.Instr(i)
		az.transfer(i, &in, st, &cmp)
		succs := az.g.Succs(i)
		if len(succs) == 0 {
			return
		}
		if len(succs) == 1 && !az.anchor[succs[0]] {
			i = int(succs[0])
			continue
		}
		if in.Op.IsCondBranch() && len(succs) == 2 && cmp.valid {
			takenIdx := -1
			if ti, ok := az.g.Index(uint64(in.A.Imm)); ok {
				takenIdx = ti
			}
			for _, s := range succs {
				es := az.edgeSt
				es.copyFrom(st)
				if takenIdx >= 0 {
					refineCmp(es, &cmp, in.Op, int(s) == takenIdx)
				}
				az.joinAnchor(int(s), es)
			}
			return
		}
		for _, s := range succs {
			az.joinAnchor(int(s), st)
		}
		return
	}
}

func (az *analyzer) joinAnchor(a int, s *state) {
	if az.recording {
		return
	}
	cur := az.in[a]
	if cur == nil {
		az.in[a] = s.clone()
		az.enqueue(a)
		return
	}
	az.joins[a]++
	var prev *state
	if az.joins[a] >= az.opts.WidenDelay {
		prev = az.prevSt
		prev.copyFrom(cur)
	}
	if cur.joinFrom(s) {
		if prev != nil {
			for k := range cur.vals {
				cur.vals[k].widen(&prev.vals[k])
			}
		}
		az.enqueue(a)
	}
}

// refineCmp narrows integer views on the edge out of a conditional
// branch whose flags came from the recorded CMPR/CMPI. Only the signed
// relation family is refined; the unsigned family (used for FP
// comparisons through UCOMISD) is left alone.
func refineCmp(st *state, c *cmpFact, op isa.Op, taken bool) {
	type rel int
	const (
		relNone rel = iota
		relEq
		relNe
		relLt
		relLe
		relGt
		relGe
	)
	var r rel
	switch op {
	case isa.JE:
		r = relEq
	case isa.JNE:
		r = relNe
	case isa.JL:
		r = relLt
	case isa.JLE:
		r = relLe
	case isa.JG:
		r = relGt
	case isa.JGE:
		r = relGe
	default:
		return
	}
	if !taken {
		switch r {
		case relEq:
			r = relNe
		case relNe:
			r = relEq
		case relLt:
			r = relGe
		case relLe:
			r = relGt
		case relGt:
			r = relLe
		case relGe:
			r = relLt
		}
	}

	bounds := func(v *aval) (int64, int64) {
		if v.iTop {
			return math.MinInt64, math.MaxInt64
		}
		return v.ilo, v.ihi
	}
	alo, ahi := bounds(&st.vals[gprLoc(c.aReg)])
	var blo, bhi int64
	if c.isImm {
		blo, bhi = c.imm, c.imm
	} else {
		blo, bhi = bounds(&st.vals[gprLoc(c.bReg)])
	}

	applyTo := func(reg uint8, lo, hi int64) {
		narrow(&st.vals[gprLoc(reg)], lo, hi)
		if cell := st.alias[reg]; cell >= 0 {
			narrow(&st.vals[nRegLoc+int(cell)], lo, hi)
		}
	}

	switch r {
	case relEq:
		applyTo(c.aReg, blo, bhi)
		if !c.isImm {
			applyTo(c.bReg, alo, ahi)
		}
	case relNe:
		if blo == bhi {
			lo, hi := alo, ahi
			if lo == blo && lo < math.MaxInt64 {
				lo++
			}
			if hi == blo && hi > math.MinInt64 {
				hi--
			}
			applyTo(c.aReg, lo, hi)
		}
	case relLt:
		applyTo(c.aReg, math.MinInt64, dec(bhi))
		if !c.isImm {
			applyTo(c.bReg, inc(alo), math.MaxInt64)
		}
	case relLe:
		applyTo(c.aReg, math.MinInt64, bhi)
		if !c.isImm {
			applyTo(c.bReg, alo, math.MaxInt64)
		}
	case relGt:
		applyTo(c.aReg, inc(blo), math.MaxInt64)
		if !c.isImm {
			applyTo(c.bReg, math.MinInt64, dec(ahi))
		}
	case relGe:
		applyTo(c.aReg, blo, math.MaxInt64)
		if !c.isImm {
			applyTo(c.bReg, math.MinInt64, ahi)
		}
	}
}

func inc(x int64) int64 {
	if x == math.MaxInt64 {
		return x
	}
	return x + 1
}

func dec(x int64) int64 {
	if x == math.MinInt64 {
		return x
	}
	return x - 1
}

// narrow intersects an int view with [lo, hi]. An empty intersection
// marks an infeasible edge; the view is left untouched (sound).
func narrow(v *aval, lo, hi int64) {
	nlo, nhi := lo, hi
	if !v.iTop {
		if v.ilo > nlo {
			nlo = v.ilo
		}
		if v.ihi < nhi {
			nhi = v.ihi
		}
	}
	if nlo > nhi {
		return
	}
	v.iTop = false
	v.ilo, v.ihi = nlo, nhi
}
