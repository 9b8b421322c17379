package vm

import (
	"math"

	"fpmix/internal/isa"
)

// Pattern superinstructions: the second fusion level of the compiled tier.
//
// Block compilation already batches a basic block's accounting into one
// update and its control transfer into one resolved successor pointer,
// but every body instruction is still one indirect closure call. The
// dynamic instruction mix of kernel code and replacement snippets is
// dominated by a handful of short straight-line idioms — the array-index
// arithmetic of hl code generation, loop tests and increments, loads
// feeding FP arithmetic, and the snippet flag test run on every checked
// operand — so fuse compiles each occurrence of those idioms into one
// micro-op executing all of its constituents.
//
// The longest are the index-access family (matchIndex): hl's whole
// row-major index computation, a[i+k] or a[(i+k)*n + j+k'], together with
// the MOVSD load or store it feeds, up to ten instructions in one
// micro-op. Each shape compiles to one closure with no branch on its
// variant: adjusts fold into a signed add of their constant, an absent
// one into an add of 0. The matcher admits only register assignments
// under which computing the index in locals is exact. Shorter patterns
// cover the index forms the family does not (a constant or computed row
// term, an index feeding an integer op).
//
// The FP families (matchFP) extend those across the scalar double
// arithmetic: an FP load of any form (a lone MOVSD, a constant or
// computed index, the index-access family, an FP constant) with the one
// to three ADDSD/SUBSD/MULSD/DIVSD/MINSD/MAXSD that follow it and an
// optional MOVSD store after them; two- and three-op arithmetic chains;
// one to three arithmetic ops with the MOVSD store that follows them (a
// lone, constant-index or index-family store); and the single snippet's
// CVTSD2SS with the stamp after it. Where an FP instance extends a
// shorter pattern at the same index, both are kept, longest first, and
// the block builder takes the longest whose span fits its body, so a
// leader inside the extension (the donor pass's split slot bases) still
// leaves the shorter one.
//
// A block's final compare — the snippet flag test or the loop test
// LOAD; MOVRI; CMPR — folds into its conditional terminator (fuseFold):
// one closure runs the compare's constituents, sets the flags and
// returns whether the branch is taken, so the block has one micro-op
// fewer and no branchTaken switch.
//
// A fused op leaves the machine exactly as its constituents would, in
// order: every intermediate register write (including scratch registers
// a later constituent overwrites), flags, memory and dirty-page marks.
// Only memory constituents can fault; a fault in constituent k replays
// the interpreter's access for the exact fault and records k in
// Machine.faultOff, so settlePartial accounts constituents 0..k exactly
// as the per-step tier would have executed them (compiled.opStart finds
// the fused op's first instruction by replaying the block builder's
// walk). Accounting, budget, stop and cancellation checks stay at block
// boundaries, and the block builder (compileProgramWith) takes a fused op
// only when its whole span lies inside one block body, so no fused op
// spans a leader. Every match reads at most maxFuseSpan instructions from
// its start, so the superinstructions at an index are a function of that
// window alone: the incremental linker matches the windows that reach
// across a fragment boundary per assembly and gets exactly Link's.

// fusePattern identifies one superinstruction pattern.
type fusePattern uint8

const (
	fuseNone fusePattern = iota
	// Array-index arithmetic and the loop test.
	fuseLoadImmMul // LOAD; MOVRI; IMULR
	fuseLoadImmAdd // LOAD; MOVRI; ADDR
	fuseLoadImmSub // LOAD; MOVRI; SUBR
	fuseLoadImmCmp // LOAD; MOVRI; CMPR (loop test)
	// The index-access family (matchIndex): a MOVSD load or store with
	// the whole hl row-major index computation feeding it, a[i+k] (1-D)
	// or a[(i+k)*n + j+k'] (2-D).
	fuseIndex1Load
	fuseIndex1Store
	fuseIndex2Load
	fuseIndex2Store
	// Indexed FP loads absorbing the tail of an index computation the
	// family does not match: LOAD; ADDR; MOVSD (a row term that is not a
	// loaded variable), ADDR; MOVSD and MOVRI; MOVSD (a constant index).
	fuseLoadAddLoadSD
	fuseAddLoadSD
	fuseImmLoadSD
	// MOVRI; MOVSD mem, xmm: a constant-index store.
	fuseImmStoreSD
	// LOAD; ADDI; STORE: the loop increment.
	fuseLoadIncStore
	// MOVRI; MOVQ xmm, gpr: an FP constant.
	fuseConstSD
	// MOVQ gpr, xmm; MOVRR; SHRI; CMPI: the snippet flag test.
	fuseFlagTest
	// MOVQ gpr, xmm; MOVRI; ANDR; MOVRI; ORR; MOVQ xmm, gpr: a single
	// snippet stamping the replacement flag into a lane-0 result.
	fuseStamp
	// The FP families (matchFP), whose instances vary in length.
	fuseLoadOp     // FP load; 1-3 arithmetic [; MOVSD store]
	fuseArithChain // 2-3 arithmetic
	fuseArithStore // 1-3 arithmetic; MOVSD store of any form
	fuseCvtStamp   // CVTSD2SS; the stamp
	numFusePatterns
)

// fixedLen is the constituent count of each pattern outside the
// index-access and FP families, whose instances vary in length.
var fixedLen = [numFusePatterns]int{
	fuseLoadImmMul:    3,
	fuseLoadImmAdd:    3,
	fuseLoadImmSub:    3,
	fuseLoadImmCmp:    3,
	fuseLoadAddLoadSD: 3,
	fuseAddLoadSD:     2,
	fuseImmLoadSD:     2,
	fuseImmStoreSD:    2,
	fuseLoadIncStore:  3,
	fuseConstSD:       2,
	fuseFlagTest:      4,
	fuseStamp:         6,
}

const (
	// maxChain bounds the arithmetic ops of one FP-family instance.
	maxChain = 3
	// maxFuseSpan is the most instructions a match reads from its start:
	// a 2-D index load (ten), maxChain arithmetic ops and a store.
	maxFuseSpan = 10 + maxChain + 1
)

// fusedOp is a superinstruction: a micro-op executing the n consecutive
// instructions starting at index at. fold is set when the instance is a
// compare that a conditional branch follows (fuseFold).
type fusedOp struct {
	op   microOp
	fold foldOp
	at   int32
	n    int32
}

// foldOp runs a block's final compare and reports whether the
// conditional branch after it is taken.
type foldOp func(m *Machine) (taken bool, err error)

// fuseCursor walks an index-ordered superinstruction list in step with
// the block builder, and with opStart's replay of it, so both take the
// same superinstructions.
type fuseCursor []fusedOp

// take returns the longest superinstruction starting at index i whose
// whole span ends by end (the end of the body being built), first
// skipping every entry before i. Calls must come in non-decreasing i.
func (fc *fuseCursor) take(i, end int32) (fusedOp, bool) {
	for len(*fc) > 0 && (*fc)[0].at < i {
		*fc = (*fc)[1:]
	}
	for _, f := range *fc {
		if f.at != i {
			break
		}
		if i+f.n <= end {
			return f, true
		}
	}
	return fusedOp{}, false
}

// Operand shapes the patterns match on. Matching checks operand kinds,
// not just opcodes, so a fused op only ever replaces the exact forms its
// closure implements.
func isGprMem(in *isa.Instr) bool { return in.A.Kind == isa.KindGPR && in.B.Kind == isa.KindMem }
func isGprImm(in *isa.Instr) bool { return in.A.Kind == isa.KindGPR && in.B.Kind == isa.KindImm }
func isGprGpr(in *isa.Instr) bool { return in.A.Kind == isa.KindGPR && in.B.Kind == isa.KindGPR }
func isXmmMem(in *isa.Instr) bool { return in.A.Kind == isa.KindXMM && in.B.Kind == isa.KindMem }
func isXmmXmm(in *isa.Instr) bool { return in.A.Kind == isa.KindXMM && in.B.Kind == isa.KindXMM }
func isXmmGpr(in *isa.Instr) bool { return in.A.Kind == isa.KindXMM && in.B.Kind == isa.KindGPR }
func isGprXmm(in *isa.Instr) bool { return in.A.Kind == isa.KindGPR && in.B.Kind == isa.KindXMM }

// isLoadSD and isStoreSD match the memory forms of MOVSD.
func isLoadSD(in *isa.Instr) bool { return in.Op == isa.MOVSD && isXmmMem(in) }
func isStoreSD(in *isa.Instr) bool {
	return in.Op == isa.MOVSD && in.A.Kind == isa.KindMem && in.B.Kind == isa.KindXMM
}

// isArithSD matches the scalar double reg-reg arithmetic the FP families
// chain.
func isArithSD(in *isa.Instr) bool {
	switch in.Op {
	case isa.ADDSD, isa.SUBSD, isa.MULSD, isa.DIVSD, isa.MINSD, isa.MAXSD:
		return isXmmXmm(in)
	}
	return false
}

// fuseMatch is one matched instance: pattern p over n constituents.
type fuseMatch struct {
	p fusePattern
	n int
}

// window is the stretch of instrs a match at index i may read.
func window(instrs []isa.Instr, i int) []isa.Instr {
	return instrs[i:min(len(instrs), i+maxFuseSpan)]
}

// matchAt matches at the start of rest, a match window: long is the FP
// family instance there (fuseNone when none matches), short the longest
// other pattern. With noIndex set neither the index-access family nor
// the FP families are tried, so the prefixes they extend match instead
// (see shadowStream).
func matchAt(rest []isa.Instr, noIndex bool) (long, short fuseMatch) {
	if noIndex {
		p := matchFixed(rest)
		return long, fuseMatch{p, fixedLen[p]}
	}
	short = matchShort(rest)
	return matchFP(rest, short), short
}

// matchShort matches the longest pattern outside the FP families at the
// start of rest.
func matchShort(rest []isa.Instr) fuseMatch {
	if s, ok := matchIndex(rest); ok {
		return fuseMatch{s.pattern(), s.n}
	}
	p := matchFixed(rest)
	return fuseMatch{p, fixedLen[p]}
}

// matchFixed matches the patterns of fixed length at the start of rest.
func matchFixed(rest []isa.Instr) fusePattern {
	a := &rest[0]
	switch {
	case a.Op == isa.LOAD && isGprMem(a) && len(rest) >= 3:
		b, c := &rest[1], &rest[2]
		switch {
		case b.Op == isa.MOVRI && isGprImm(b) && isGprGpr(c):
			switch c.Op {
			case isa.IMULR:
				return fuseLoadImmMul
			case isa.ADDR:
				return fuseLoadImmAdd
			case isa.SUBR:
				return fuseLoadImmSub
			case isa.CMPR:
				return fuseLoadImmCmp
			}
		case b.Op == isa.ADDR && isGprGpr(b) && isLoadSD(c):
			return fuseLoadAddLoadSD
		case b.Op == isa.ADDI && isGprImm(b) && c.Op == isa.STORE && c.A.Kind == isa.KindMem && c.B.Kind == isa.KindGPR:
			return fuseLoadIncStore
		}
	case a.Op == isa.ADDR && isGprGpr(a) && len(rest) >= 2 && isLoadSD(&rest[1]):
		return fuseAddLoadSD
	case a.Op == isa.MOVRI && isGprImm(a) && len(rest) >= 2:
		switch b := &rest[1]; {
		case b.Op == isa.MOVQ && isXmmGpr(b):
			return fuseConstSD
		case isLoadSD(b):
			return fuseImmLoadSD
		case isStoreSD(b):
			return fuseImmStoreSD
		}
	case a.Op == isa.MOVQ && isGprXmm(a) && len(rest) >= 4:
		// The snippet compiler's register shapes only (r0 the lane's
		// scratch, r1 the other), so the closures compute in locals.
		r0, b, c, d := a.A.Reg, &rest[1], &rest[2], &rest[3]
		r1 := b.A.Reg
		if b.Op == isa.MOVRR && isGprGpr(b) && c.Op == isa.SHRI && isGprImm(c) &&
			d.Op == isa.CMPI && isGprImm(d) &&
			r1 != r0 && b.B.Reg == r0 && c.A.Reg == r1 && d.A.Reg == r1 {
			return fuseFlagTest
		}
		if len(rest) >= 6 && b.Op == isa.MOVRI && isGprImm(b) && c.Op == isa.ANDR && isGprGpr(c) &&
			d.Op == isa.MOVRI && isGprImm(d) && rest[4].Op == isa.ORR && isGprGpr(&rest[4]) &&
			rest[5].Op == isa.MOVQ && isXmmGpr(&rest[5]) &&
			r1 != r0 && c.A.Reg == r0 && c.B.Reg == r1 && d.A.Reg == r1 &&
			rest[4].A.Reg == r0 && rest[4].B.Reg == r1 && rest[5].B.Reg == r0 {
			return fuseStamp
		}
	}
	return fuseNone
}

// matchFP matches the FP families at the start of rest, where short
// (matchShort) matched.
func matchFP(rest []isa.Instr, short fuseMatch) fuseMatch {
	switch a := &rest[0]; {
	case isArithSD(a):
		k := arithRun(rest)
		if n := storeLen(rest[k:]); n > 0 {
			return fuseMatch{fuseArithStore, k + n}
		}
		if k >= 2 {
			return fuseMatch{fuseArithChain, k}
		}
	case a.Op == isa.CVTSD2SS && isXmmXmm(a):
		if len(rest) > 1 && matchFixed(rest[1:]) == fuseStamp {
			return fuseMatch{fuseCvtStamp, 1 + fixedLen[fuseStamp]}
		}
	default:
		if _, h := loadHead(rest, short); h > 0 {
			if k := arithRun(rest[h:]); k > 0 {
				n := h + k
				if n < len(rest) && isStoreSD(&rest[n]) {
					n++
				}
				return fuseMatch{fuseLoadOp, n}
			}
		}
	}
	return fuseMatch{}
}

// arithRun counts the arithmetic ops leading rest, at most maxChain.
func arithRun(rest []isa.Instr) int {
	k := 0
	for k < len(rest) && k < maxChain && isArithSD(&rest[k]) {
		k++
	}
	return k
}

// loadHead matches the FP load that heads a fuseLoadOp instance, given
// short (matchShort) at the start of rest: an index-access load, LOAD;
// ADDR; MOVSD, ADDR; MOVSD, MOVRI; MOVSD, an FP constant, or (pattern
// fuseNone) a lone MOVSD load. It returns the head's pattern and length,
// 0 when rest starts with none.
func loadHead(rest []isa.Instr, short fuseMatch) (fusePattern, int) {
	switch short.p {
	case fuseIndex1Load, fuseIndex2Load, fuseLoadAddLoadSD, fuseAddLoadSD, fuseImmLoadSD, fuseConstSD:
		return short.p, short.n
	case fuseNone:
		if isLoadSD(&rest[0]) {
			return fuseNone, 1
		}
	}
	return fuseNone, 0
}

// storeLen matches the store that ends a fuseArithStore instance: an
// index-access store, MOVRI; MOVSD store, or a lone MOVSD store. It
// returns the store's length, 0 when rest starts with none.
func storeLen(rest []isa.Instr) int {
	if len(rest) == 0 {
		return 0
	}
	if s, ok := matchIndex(rest); ok {
		if s.store {
			return s.n
		}
		return 0
	}
	if matchFixed(rest) == fuseImmStoreSD {
		return fixedLen[fuseImmStoreSD]
	}
	if isStoreSD(&rest[0]) {
		return 1
	}
	return 0
}

// compileOps pre-decodes an immutable straight-line fragment: ops[i] is
// instruction i's micro-op (nil for block terminators, which never run
// as micro-ops).
func compileOps(instrs []isa.Instr) []microOp {
	ops := make([]microOp, len(instrs))
	for i := range instrs {
		if !endsBlock(instrs[i].Op) {
			ops[i] = compileOp(&instrs[i])
		}
	}
	return ops
}

// matchRange lists, in index order and longest first at each index, the
// superinstructions starting at indices from..to-1 of instrs. Every index
// is matched independently, so whichever leaders an assembly places,
// the block builder finds the superinstructions of each body starting
// at its first instruction. noIndex is matchAt's.
func matchRange(instrs []isa.Instr, from, to int, noIndex bool) []fusedOp {
	var fused []fusedOp
	for i := from; i < to; i++ {
		rest := window(instrs, i)
		long, short := matchAt(rest, noIndex)
		if long.p != fuseNone {
			fused = append(fused, fusedOp{op: fuse(long.p, rest[:long.n]), at: int32(i), n: int32(long.n)})
		}
		if short.p != fuseNone {
			f := fusedOp{op: fuse(short.p, rest[:short.n]), at: int32(i), n: int32(short.n)}
			if short.n < len(rest) && rest[short.n].Op.IsCondBranch() {
				f.fold = fuseFold(short.p, rest[:short.n], rest[short.n].Op)
			}
			fused = append(fused, f)
		}
	}
	return fused
}

// compileFrag pre-decodes a whole stream: its micro-ops (compileOps) and
// superinstructions (matchRange).
func compileFrag(instrs []isa.Instr, noIndex bool) (ops []microOp, fused []fusedOp) {
	return compileOps(instrs), matchRange(instrs, 0, len(instrs), noIndex)
}

// loadFault replays constituent k's out-of-bounds 8-byte load on the
// interpreter's path, which builds the exact fault, and records k for
// settlePartial.
func (m *Machine) loadFault(k int32, in *isa.Instr, ref isa.MemRef) error {
	m.faultOff = k
	_, err := m.load(in, ref, 8)
	return err
}

// storeFault is loadFault for an 8-byte store of v.
func (m *Machine) storeFault(k int32, in *isa.Instr, ref isa.MemRef, v uint64) error {
	m.faultOff = k
	return m.store(in, ref, v, 8)
}

// fuse compiles the constituents c (which match pattern p) into one
// micro-op. The captured instruction pointers are consulted only on
// fault paths, where the interpreter's access is replayed.
func fuse(p fusePattern, c []isa.Instr) microOp {
	switch p {
	case fuseLoadImmMul, fuseLoadImmAdd, fuseLoadImmSub, fuseLoadImmCmp:
		return fuseLoadImm(p, c)
	case fuseIndex1Load, fuseIndex1Store, fuseIndex2Load, fuseIndex2Store:
		s, _ := matchIndex(c)
		return fuseIndex(s, c, 0, nil, nil)
	case fuseLoadAddLoadSD, fuseAddLoadSD, fuseImmLoadSD, fuseConstSD:
		return fuseLoadHead(p, c, nil)
	case fuseImmStoreSD:
		return fuseStore(c, nil, 0)
	case fuseLoadIncStore:
		o := &memOp{ld: &c[0], d0: c[0].A.Reg, ref0: c[0].B.Mem}
		o.d1, o.imm = c[1].A.Reg, uint64(c[1].B.Imm)
		o.fl, o.ref, o.s1 = &c[2], c[2].A.Mem, c[2].B.Reg
		return func(m *Machine) error {
			v, ok := loadRef(m, &o.ref0)
			if !ok {
				return m.loadFault(0, o.ld, o.ref0)
			}
			m.GPR[o.d0] = v
			m.GPR[o.d1] += o.imm
			addr, ok := storeRef(m, &o.ref, m.GPR[o.s1])
			if !ok {
				return m.storeFault(2, o.fl, o.ref, m.GPR[o.s1])
			}
			if m.track != nil {
				m.track.markRange(addr, 8)
			}
			return nil
		}
	case fuseFlagTest:
		f := newFlagTestOp(c)
		return func(m *Machine) error {
			f.run(m)
			return nil
		}
	case fuseStamp:
		return fuseStampOp(c, nil)
	case fuseLoadOp:
		hp, h := loadHead(c, matchShort(c))
		k := arithRun(c[h:])
		t := &fpTail{ops: sdOps(c[h : h+k])}
		if h+k < len(c) {
			t.st, t.at = &c[h+k], int32(h+k)
		}
		if hp == fuseIndex1Load || hp == fuseIndex2Load {
			s, _ := matchIndex(c)
			return fuseIndex(s, c[:h], 0, nil, t)
		}
		return fuseLoadHead(hp, c[:h], t)
	case fuseArithChain:
		ops := sdOps(c)
		return func(m *Machine) error {
			m.runSD(ops)
			return nil
		}
	case fuseArithStore:
		k := arithRun(c)
		return fuseStore(c[k:], sdOps(c[:k]), int32(k))
	case fuseCvtStamp:
		return fuseStampOp(c[1:], &c[0])
	}
	panic("vm: fuse: unknown pattern")
}

// stampOp is the stamp MOVQ r0,x; MOVRI r1,mask; ANDR r0,r1; MOVRI
// r1,flag; ORR r0,r1; MOVQ x',r0, decoded.
type stampOp struct {
	r0, x, r1, x5 uint8
	mask, flag    uint64
}

func (s *stampOp) run(m *Machine) {
	v := m.XMM[s.x][0]&s.mask | s.flag
	m.GPR[s.r0], m.GPR[s.r1] = v, s.flag
	m.XMM[s.x5][0] = v
}

// fuseStampOp compiles the stamp c, after the CVTSD2SS cvt when cvt is
// not nil.
func fuseStampOp(c []isa.Instr, cvt *isa.Instr) microOp {
	s := &stampOp{r0: c[0].A.Reg, x: c[0].B.Reg, r1: c[1].A.Reg, x5: c[5].A.Reg,
		mask: uint64(c[1].B.Imm), flag: uint64(c[3].B.Imm)}
	if cvt == nil {
		return func(m *Machine) error {
			s.run(m)
			return nil
		}
	}
	xc, yc := cvt.A.Reg, cvt.B.Reg
	return func(m *Machine) error {
		m.setLow32(xc, math.Float32bits(float32(math.Float64frombits(m.XMM[yc][0]))))
		s.run(m)
		return nil
	}
}

// sdOp is one arithmetic constituent of an FP-family instance: xmm d op=
// xmm s in lane 0.
type sdOp struct {
	op   isa.Op
	d, s uint8
}

func sdOps(c []isa.Instr) []sdOp {
	ops := make([]sdOp, len(c))
	for i := range c {
		ops[i] = sdOp{op: c[i].Op, d: c[i].A.Reg, s: c[i].B.Reg}
	}
	return ops
}

// runSD executes arithmetic constituents in order, as compileOp's
// reg-reg closures do.
func (m *Machine) runSD(ops []sdOp) {
	for _, o := range ops {
		a := math.Float64frombits(m.XMM[o.d][0])
		b := math.Float64frombits(m.XMM[o.s][0])
		m.XMM[o.d][0] = math.Float64bits(arith64(o.op, a, b))
	}
}

// fpTail is what a fuseLoadOp instance runs after its load: the
// arithmetic, then the MOVSD store st (constituent at) when not nil.
type fpTail struct {
	ops []sdOp
	st  *isa.Instr
	at  int32
}

// tail runs t, if any, after a load head.
func (m *Machine) tail(t *fpTail) error {
	if t == nil {
		return nil
	}
	return m.runTail(t)
}

func (m *Machine) runTail(t *fpTail) error {
	for _, o := range t.ops { // runSD, written out: one call, not two
		a := math.Float64frombits(m.XMM[o.d][0])
		b := math.Float64frombits(m.XMM[o.s][0])
		m.XMM[o.d][0] = math.Float64bits(arith64(o.op, a, b))
	}
	if t.st == nil {
		return nil
	}
	x := t.st.B.Reg
	addr, ok := storeRef(m, &t.st.A.Mem, m.XMM[x][0])
	if !ok {
		return m.storeFault(t.at, t.st, t.st.A.Mem, m.XMM[x][0])
	}
	if m.track != nil {
		m.track.markRange(addr, 8)
	}
	return nil
}

// memOp is a load head, store or loop increment, decoded for its
// closure (see indexOp): the first memory constituent ld and ref0, the
// second fl and ref at constituent at, registers, a constant, and the
// arithmetic pre before a store or the tail t after a load.
type memOp struct {
	ld, fl        *isa.Instr
	ref0, ref     isa.MemRef
	d0, d1, s1, x uint8
	imm           uint64
	at            int32
	pre           []sdOp
	t             *fpTail
}

// fuseLoadHead compiles the load head c of pattern p (fuseNone: a lone
// MOVSD load), followed by tail t when not nil.
func fuseLoadHead(p fusePattern, c []isa.Instr, t *fpTail) microOp {
	o := &memOp{t: t}
	switch p {
	case fuseLoadAddLoadSD:
		o.ld, o.d0, o.ref0 = &c[0], c[0].A.Reg, c[0].B.Mem
		o.d1, o.s1 = c[1].A.Reg, c[1].B.Reg
		o.fl, o.x, o.ref = &c[2], c[2].A.Reg, c[2].B.Mem
		return func(m *Machine) error {
			v, ok := loadRef(m, &o.ref0)
			if !ok {
				return m.loadFault(0, o.ld, o.ref0)
			}
			m.GPR[o.d0] = v
			m.GPR[o.d1] += m.GPR[o.s1]
			w, ok := loadRef(m, &o.ref)
			if !ok {
				return m.loadFault(2, o.fl, o.ref)
			}
			m.XMM[o.x][0], m.XMM[o.x][1] = w, 0
			return m.tail(o.t)
		}
	case fuseAddLoadSD:
		o.d0, o.s1 = c[0].A.Reg, c[0].B.Reg
		o.fl, o.x, o.ref = &c[1], c[1].A.Reg, c[1].B.Mem
		return func(m *Machine) error {
			m.GPR[o.d0] += m.GPR[o.s1]
			w, ok := loadRef(m, &o.ref)
			if !ok {
				return m.loadFault(1, o.fl, o.ref)
			}
			m.XMM[o.x][0], m.XMM[o.x][1] = w, 0
			return m.tail(o.t)
		}
	case fuseImmLoadSD:
		o.d0, o.imm = c[0].A.Reg, uint64(c[0].B.Imm)
		o.fl, o.x, o.ref = &c[1], c[1].A.Reg, c[1].B.Mem
		return func(m *Machine) error {
			m.GPR[o.d0] = o.imm
			w, ok := loadRef(m, &o.ref)
			if !ok {
				return m.loadFault(1, o.fl, o.ref)
			}
			m.XMM[o.x][0], m.XMM[o.x][1] = w, 0
			return m.tail(o.t)
		}
	case fuseConstSD:
		o.d0, o.imm = c[0].A.Reg, uint64(c[0].B.Imm)
		o.x, o.s1 = c[1].A.Reg, c[1].B.Reg
		return func(m *Machine) error {
			m.GPR[o.d0] = o.imm
			m.XMM[o.x][0] = m.GPR[o.s1]
			return m.tail(o.t)
		}
	}
	o.fl, o.x, o.ref = &c[0], c[0].A.Reg, c[0].B.Mem
	return func(m *Machine) error {
		w, ok := loadRef(m, &o.ref)
		if !ok {
			return m.loadFault(0, o.fl, o.ref)
		}
		m.XMM[o.x][0], m.XMM[o.x][1] = w, 0
		return m.tail(o.t)
	}
}

// fuseStore compiles the store c — an index-access store, MOVRI; MOVSD
// store, or a lone MOVSD store — at constituent off of its instance,
// after the arithmetic pre.
func fuseStore(c []isa.Instr, pre []sdOp, off int32) microOp {
	if s, ok := matchIndex(c); ok {
		return fuseIndex(s, c, off, pre, nil)
	}
	o := &memOp{pre: pre}
	o.fl = &c[len(c)-1]
	o.at, o.ref, o.x = off+int32(len(c)-1), o.fl.A.Mem, o.fl.B.Reg
	if len(c) == 1 {
		return func(m *Machine) error {
			m.runSD(o.pre)
			addr, ok := storeRef(m, &o.ref, m.XMM[o.x][0])
			if !ok {
				return m.storeFault(o.at, o.fl, o.ref, m.XMM[o.x][0])
			}
			if m.track != nil {
				m.track.markRange(addr, 8)
			}
			return nil
		}
	}
	o.d0, o.imm = c[0].A.Reg, uint64(c[0].B.Imm)
	return func(m *Machine) error {
		if len(o.pre) > 0 {
			m.runSD(o.pre)
		}
		m.GPR[o.d0] = o.imm
		addr, ok := storeRef(m, &o.ref, m.XMM[o.x][0])
		if !ok {
			return m.storeFault(o.at, o.fl, o.ref, m.XMM[o.x][0])
		}
		if m.track != nil {
			m.track.markRange(addr, 8)
		}
		return nil
	}
}

// flagTestOp is the flag test MOVQ r0,x; MOVRR r1,r0; SHRI r1,sh; CMPI
// r1,imm, decoded.
type flagTestOp struct {
	r0, x, r1 uint8
	sh, imm   uint64
}

func newFlagTestOp(c []isa.Instr) *flagTestOp {
	return &flagTestOp{r0: c[0].A.Reg, x: c[0].B.Reg, r1: c[1].A.Reg,
		sh: uint64(c[2].B.Imm) & 63, imm: uint64(c[3].B.Imm)}
}

func (f *flagTestOp) run(m *Machine) {
	v := m.XMM[f.x][0]
	t := v >> f.sh
	m.GPR[f.r0], m.GPR[f.r1] = v, t
	m.setCmp(t, f.imm)
}

// loadCmpOp is the loop test's constituents, decoded.
type loadCmpOp struct {
	ld             *isa.Instr
	ref            isa.MemRef
	d0, d1, a2, b2 uint8
	imm            uint64
}

// set writes the constituents' effects given the loaded value v.
func (l *loadCmpOp) set(m *Machine, v uint64) {
	m.GPR[l.d0] = v
	m.GPR[l.d1] = l.imm
	m.setCmp(m.GPR[l.a2], m.GPR[l.b2])
}

// fuseFold compiles a block's final compare c (pattern p) together with
// the conditional branch j after it, or returns nil when p is not a
// compare the fold covers. The closure runs the compare's constituents,
// setting every register and flag they would, and evaluates j on the
// flags it just set; the common conditions get their own closure, so
// only the rest go through branchTaken's switch.
func fuseFold(p fusePattern, c []isa.Instr, j isa.Op) foldOp {
	switch p {
	case fuseFlagTest:
		f := newFlagTestOp(c)
		switch j {
		case isa.JE:
			return func(m *Machine) (bool, error) {
				f.run(m)
				return m.eq, nil
			}
		case isa.JNE:
			return func(m *Machine) (bool, error) {
				f.run(m)
				return !m.eq, nil
			}
		}
		return func(m *Machine) (bool, error) {
			f.run(m)
			return m.branchTaken(j), nil
		}
	case fuseLoadImmCmp:
		l := &loadCmpOp{
			ld: &c[0], ref: c[0].B.Mem, d0: c[0].A.Reg,
			d1: c[1].A.Reg, imm: uint64(c[1].B.Imm),
			a2: c[2].A.Reg, b2: c[2].B.Reg,
		}
		switch j {
		case isa.JL:
			return func(m *Machine) (bool, error) {
				v, ok := loadRef(m, &l.ref)
				if !ok {
					return false, m.loadFault(0, l.ld, l.ref)
				}
				l.set(m, v)
				return m.ltS, nil
			}
		case isa.JGE:
			return func(m *Machine) (bool, error) {
				v, ok := loadRef(m, &l.ref)
				if !ok {
					return false, m.loadFault(0, l.ld, l.ref)
				}
				l.set(m, v)
				return !m.ltS, nil
			}
		}
		return func(m *Machine) (bool, error) {
			v, ok := loadRef(m, &l.ref)
			if !ok {
				return false, m.loadFault(0, l.ld, l.ref)
			}
			l.set(m, v)
			return m.branchTaken(j), nil
		}
	}
	return nil
}

// indexShape is one matched instance of the index-access family. With
// T = LOAD rA,[m] [; MOVRI rB,k; ADDR|SUBR rA,rB] it is
//
//	1-D: T; MOVSD
//	2-D: T; MOVRI rB,n; IMULR rA,rB;
//	     (LOAD rB,[m'] [; MOVRI rC,k'; ADDR|SUBR rB,rC] | MOVRI rB,c);
//	     ADDR rA,rB; MOVSD
//
// where the MOVSD loads or stores [base + rA*scale + disp].
type indexShape struct {
	n     int  // constituent count; the MOVSD is the last
	twoD  bool // the 2-D shape
	store bool // the MOVSD is a store
	adj0  bool // T carries its adjust (constituents 1 and 2)
	// 2-D only: col indexes the column term's first constituent, a LOAD
	// (adjusted when adj1) or, when colConst, a MOVRI.
	col      int
	colConst bool
	adj1     bool
}

// pattern maps the shape to its pattern.
func (s indexShape) pattern() fusePattern {
	p := fuseIndex1Load
	if s.twoD {
		p = fuseIndex2Load
	}
	if s.store {
		p++ // the store form follows its load form
	}
	return p
}

// reads reports whether ref reads register r.
func reads(ref isa.MemRef, r uint8) bool { return ref.Base == r || ref.HasIndex && ref.Index == r }

// adjustAt matches MOVRI r,k; ADDR|SUBR d,r at rest[i:] with r != d and
// returns r.
func adjustAt(rest []isa.Instr, i int, d uint8) (uint8, bool) {
	if i+2 > len(rest) {
		return 0, false
	}
	mi, op := &rest[i], &rest[i+1]
	if mi.Op != isa.MOVRI || !isGprImm(mi) || (op.Op != isa.ADDR && op.Op != isa.SUBR) || !isGprGpr(op) {
		return 0, false
	}
	r := mi.A.Reg
	return r, r != d && op.A.Reg == d && op.B.Reg == r
}

// accessAt matches a MOVSD load or store at rest[i] indexed by rA whose
// base is none of the registers w the shape writes.
func accessAt(rest []isa.Instr, i int, rA uint8, w ...uint8) (store, ok bool) {
	if i >= len(rest) || rest[i].Op != isa.MOVSD {
		return false, false
	}
	in := &rest[i]
	var ref isa.MemRef
	switch {
	case isXmmMem(in):
		ref = in.B.Mem
	case in.A.Kind == isa.KindMem && in.B.Kind == isa.KindXMM:
		ref, store = in.A.Mem, true
	default:
		return false, false
	}
	if !ref.HasIndex || ref.Index != rA || ref.Base == rA {
		return false, false
	}
	for _, r := range w {
		if ref.Base == r {
			return false, false
		}
	}
	return store, true
}

// matchIndex matches the index-access family at the start of rest. The
// closures compute the index in locals and write only the registers'
// final values, so the matcher rejects every register aliasing that
// would make a constituent read a register another has since written:
// rA, rB and rC must differ, the column LOAD may not read rA or rB, and
// the access's base may not be one of them.
func matchIndex(rest []isa.Instr) (s indexShape, ok bool) {
	if len(rest) < 2 || rest[0].Op != isa.LOAD || !isGprMem(&rest[0]) {
		return s, false
	}
	rA := rest[0].A.Reg
	rB, adj0 := adjustAt(rest, 1, rA)
	i := 1
	if adj0 {
		i = 3
	} else {
		rB = rA
	}
	s.adj0 = adj0
	if store, ok := accessAt(rest, i, rA, rB); ok {
		s.n, s.store = i+1, store
		return s, true
	}
	// 2-D: MOVRI rB,n; IMULR rA,rB, with T's adjust (if any) on rB too.
	if i+3 > len(rest) {
		return s, false
	}
	mi, mul := &rest[i], &rest[i+1]
	if mi.Op != isa.MOVRI || !isGprImm(mi) || adj0 && mi.A.Reg != rB {
		return s, false
	}
	rB = mi.A.Reg
	if rB == rA || mul.Op != isa.IMULR || !isGprGpr(mul) || mul.A.Reg != rA || mul.B.Reg != rB {
		return s, false
	}
	s.twoD, s.col = true, i+2
	j, rC := i+3, rB
	switch col := &rest[i+2]; {
	case col.Op == isa.MOVRI && isGprImm(col) && col.A.Reg == rB:
		s.colConst = true
	case col.Op == isa.LOAD && isGprMem(col) && col.A.Reg == rB && !reads(col.B.Mem, rA) && !reads(col.B.Mem, rB):
		if r, ok := adjustAt(rest, j, rB); ok && r != rA {
			s.adj1, rC, j = true, r, j+2
		}
	default:
		return s, false
	}
	if j >= len(rest) || rest[j].Op != isa.ADDR || !isGprGpr(&rest[j]) || rest[j].A.Reg != rA || rest[j].B.Reg != rB {
		return s, false
	}
	store, ok := accessAt(rest, j+1, rA, rB, rC)
	if !ok {
		return s, false
	}
	s.n, s.store = j+2, store
	return s, true
}

// adjust is the signed add ADDR|SUBR op of the constant k performs.
func adjust(op *isa.Instr, k int64) uint64 {
	if op.Op == isa.SUBR {
		return -uint64(k)
	}
	return uint64(k)
}

// indexOp is an index-access instance, decoded for its closure. The
// closures capture only a pointer to it: a Go closure loads every
// captured variable on entry, so one pointer keeps their prologue short.
type indexOp struct {
	ld, ld1, acc     *isa.Instr // T's LOAD, the column LOAD, the access
	ref0, ref1, ref  isa.MemRef
	rA, rB, rC, x    uint8
	base             uint8
	k0, adj0, n      uint64
	rowOff, k1, adj1 uint64 // rowOff+col for a constant column
	col, scale, disp uint64
	off, col1, at    int32 // constituent indices within the superinstruction
	pre              []sdOp
	t                *fpTail
}

// fuseIndex compiles an index-access instance c (shape s), constituent
// off of its superinstruction, into one branch-free micro-op per shape; a
// store runs the arithmetic pre first, a load the tail t (when not nil)
// after. Each adjust folds into a signed add of its constant (0 when
// absent); an absent adjust's scratch register is the register written
// after it, so its write is overwritten rather than branched around.
// Every scratch write a later constituent overwrites (T's rB, the row
// length) is skipped on the success path and made on the fault path that
// observes it. The matcher guarantees the memory operands read none of
// the registers written before them except the access's index, so the
// closures compute from locals.
func fuseIndex(s indexShape, c []isa.Instr, off int32, pre []sdOp, t *fpTail) microOp {
	o := &indexOp{ld: &c[0], rA: c[0].A.Reg, ref0: c[0].B.Mem, off: off, pre: pre, t: t}
	o.rB = o.rA
	if s.adj0 {
		o.rB, o.k0, o.adj0 = c[1].A.Reg, uint64(c[1].B.Imm), adjust(&c[2], c[1].B.Imm)
	}
	o.at = off + int32(s.n-1)
	o.acc = &c[s.n-1]
	o.ref, o.x = o.acc.B.Mem, o.acc.A.Reg
	if s.store {
		o.ref, o.x = o.acc.A.Mem, o.acc.B.Reg
	}
	o.base, o.scale, o.disp = o.ref.Base, uint64(o.ref.Scale), uint64(int64(o.ref.Disp))
	if !s.twoD {
		if s.store {
			return func(m *Machine) error {
				if len(o.pre) > 0 {
					m.runSD(o.pre)
				}
				v, ok := loadRef(m, &o.ref0)
				if !ok {
					return m.loadFault(o.off, o.ld, o.ref0)
				}
				a := v + o.adj0
				m.GPR[o.rB] = o.k0
				m.GPR[o.rA] = a
				addr := m.GPR[o.base] + o.disp + a*o.scale
				if !store64At(m, addr, m.XMM[o.x][0]) {
					return m.storeFault(o.at, o.acc, o.ref, m.XMM[o.x][0])
				}
				if m.track != nil {
					m.track.markRange(addr, 8)
				}
				return nil
			}
		}
		return func(m *Machine) error {
			v, ok := loadRef(m, &o.ref0)
			if !ok {
				return m.loadFault(o.off, o.ld, o.ref0)
			}
			a := v + o.adj0
			m.GPR[o.rB] = o.k0
			m.GPR[o.rA] = a
			w, ok := load64At(m, m.GPR[o.base]+o.disp+a*o.scale)
			if !ok {
				return m.loadFault(o.at, o.acc, o.ref)
			}
			m.XMM[o.x][0], m.XMM[o.x][1] = w, 0
			return m.tail(o.t)
		}
	}
	o.rB = c[s.col].A.Reg
	o.n = uint64(c[s.col-2].B.Imm)
	o.rowOff = o.adj0 * o.n // (v+adj0)*n == v*n + adj0*n modulo 2^64
	if s.colConst {
		o.col = uint64(c[s.col].B.Imm)
		o.rowOff += o.col
		if s.store {
			return func(m *Machine) error {
				if len(o.pre) > 0 {
					m.runSD(o.pre)
				}
				v, ok := loadRef(m, &o.ref0)
				if !ok {
					return m.loadFault(o.off, o.ld, o.ref0)
				}
				a := v*o.n + o.rowOff
				m.GPR[o.rB] = o.col
				m.GPR[o.rA] = a
				addr := m.GPR[o.base] + o.disp + a*o.scale
				if !store64At(m, addr, m.XMM[o.x][0]) {
					return m.storeFault(o.at, o.acc, o.ref, m.XMM[o.x][0])
				}
				if m.track != nil {
					m.track.markRange(addr, 8)
				}
				return nil
			}
		}
		return func(m *Machine) error {
			v, ok := loadRef(m, &o.ref0)
			if !ok {
				return m.loadFault(o.off, o.ld, o.ref0)
			}
			a := v*o.n + o.rowOff
			m.GPR[o.rB] = o.col
			m.GPR[o.rA] = a
			w, ok := load64At(m, m.GPR[o.base]+o.disp+a*o.scale)
			if !ok {
				return m.loadFault(o.at, o.acc, o.ref)
			}
			m.XMM[o.x][0], m.XMM[o.x][1] = w, 0
			return m.tail(o.t)
		}
	}
	o.ld1, o.ref1, o.col1 = &c[s.col], c[s.col].B.Mem, off+int32(s.col)
	o.rC = o.rB
	if s.adj1 {
		o.rC, o.k1, o.adj1 = c[s.col+1].A.Reg, uint64(c[s.col+1].B.Imm), adjust(&c[s.col+2], c[s.col+1].B.Imm)
	}
	if s.store {
		return func(m *Machine) error {
			if len(o.pre) > 0 {
				m.runSD(o.pre)
			}
			v, ok := loadRef(m, &o.ref0)
			if !ok {
				return m.loadFault(o.off, o.ld, o.ref0)
			}
			row := v*o.n + o.rowOff
			w, ok := loadRef(m, &o.ref1)
			if !ok {
				m.GPR[o.rA], m.GPR[o.rB] = row, o.n
				return m.loadFault(o.col1, o.ld1, o.ref1)
			}
			col := w + o.adj1
			a := row + col
			m.GPR[o.rC] = o.k1
			m.GPR[o.rB] = col
			m.GPR[o.rA] = a
			addr := m.GPR[o.base] + o.disp + a*o.scale
			if !store64At(m, addr, m.XMM[o.x][0]) {
				return m.storeFault(o.at, o.acc, o.ref, m.XMM[o.x][0])
			}
			if m.track != nil {
				m.track.markRange(addr, 8)
			}
			return nil
		}
	}
	return func(m *Machine) error {
		v, ok := loadRef(m, &o.ref0)
		if !ok {
			return m.loadFault(o.off, o.ld, o.ref0)
		}
		row := v*o.n + o.rowOff
		w, ok := loadRef(m, &o.ref1)
		if !ok {
			m.GPR[o.rA], m.GPR[o.rB] = row, o.n
			return m.loadFault(o.col1, o.ld1, o.ref1)
		}
		col := w + o.adj1
		a := row + col
		m.GPR[o.rC] = o.k1
		m.GPR[o.rB] = col
		m.GPR[o.rA] = a
		u, ok := load64At(m, m.GPR[o.base]+o.disp+a*o.scale)
		if !ok {
			return m.loadFault(o.at, o.acc, o.ref)
		}
		m.XMM[o.x][0], m.XMM[o.x][1] = u, 0
		return m.tail(o.t)
	}
}

// fuseLoadImm compiles LOAD; MOVRI; IMULR|ADDR|SUBR|CMPR, one closure per
// final opcode so the hot path carries no opcode switch.
func fuseLoadImm(p fusePattern, c []isa.Instr) microOp {
	o := &memOp{ld: &c[0], d0: c[0].A.Reg, ref0: c[0].B.Mem}
	o.d1, o.imm = c[1].A.Reg, uint64(c[1].B.Imm)
	o.x, o.s1 = c[2].A.Reg, c[2].B.Reg // x: the final op's destination
	switch p {
	case fuseLoadImmMul:
		return func(m *Machine) error {
			v, ok := loadRef(m, &o.ref0)
			if !ok {
				return m.loadFault(0, o.ld, o.ref0)
			}
			m.GPR[o.d0] = v
			m.GPR[o.d1] = o.imm
			m.GPR[o.x] = uint64(int64(m.GPR[o.x]) * int64(m.GPR[o.s1]))
			return nil
		}
	case fuseLoadImmAdd:
		return func(m *Machine) error {
			v, ok := loadRef(m, &o.ref0)
			if !ok {
				return m.loadFault(0, o.ld, o.ref0)
			}
			m.GPR[o.d0] = v
			m.GPR[o.d1] = o.imm
			m.GPR[o.x] += m.GPR[o.s1]
			return nil
		}
	case fuseLoadImmSub:
		return func(m *Machine) error {
			v, ok := loadRef(m, &o.ref0)
			if !ok {
				return m.loadFault(0, o.ld, o.ref0)
			}
			m.GPR[o.d0] = v
			m.GPR[o.d1] = o.imm
			m.GPR[o.x] -= m.GPR[o.s1]
			return nil
		}
	default: // fuseLoadImmCmp
		return func(m *Machine) error {
			v, ok := loadRef(m, &o.ref0)
			if !ok {
				return m.loadFault(0, o.ld, o.ref0)
			}
			m.GPR[o.d0] = v
			m.GPR[o.d1] = o.imm
			m.setCmp(m.GPR[o.x], m.GPR[o.s1])
			return nil
		}
	}
}
