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
// arithmetic of hl code generation, loop tests and increments, a load
// feeding an FP operation, and the snippet flag test run on every checked
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
// spans a leader. compileFrag sees one immutable fragment at a time (an
// incremental-linker cache fragment, or the whole stream for Link), so
// none spans a fragment boundary either.

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
	// LOAD; ADDI; STORE: the loop increment.
	fuseLoadIncStore
	// MOVSD xmm, mem; ADDSD/SUBSD/MULSD xmm, xmm: load-op.
	fuseLoadAddSD
	fuseLoadSubSD
	fuseLoadMulSD
	// MOVRI; MOVQ xmm, gpr: an FP constant.
	fuseConstSD
	// MOVQ gpr, xmm; MOVRR; SHRI; CMPI: the snippet flag test.
	fuseFlagTest
	// MOVQ gpr, xmm; MOVRI; ANDR; MOVRI; ORR; MOVQ xmm, gpr: a single
	// snippet stamping the replacement flag into a lane-0 result.
	fuseStamp
	numFusePatterns
)

// fixedLen is the constituent count of each pattern outside the
// index-access family, whose instances vary in length.
var fixedLen = [numFusePatterns]int{
	fuseLoadImmMul:    3,
	fuseLoadImmAdd:    3,
	fuseLoadImmSub:    3,
	fuseLoadImmCmp:    3,
	fuseLoadAddLoadSD: 3,
	fuseAddLoadSD:     2,
	fuseImmLoadSD:     2,
	fuseLoadIncStore:  3,
	fuseLoadAddSD:     2,
	fuseLoadSubSD:     2,
	fuseLoadMulSD:     2,
	fuseConstSD:       2,
	fuseFlagTest:      4,
	fuseStamp:         6,
}

// fusedOp is a superinstruction: a micro-op executing the n consecutive
// instructions starting at index at.
type fusedOp struct {
	op microOp
	at int32
	n  int32
}

// fuseCursor walks an index-ordered superinstruction list in step with
// the block builder, and with opStart's replay of it, so both take the
// same superinstructions.
type fuseCursor []fusedOp

// take returns the superinstruction starting at index i when its whole
// span ends by end (the end of the body being built), first skipping
// every entry before i. Calls must come in non-decreasing i.
func (fc *fuseCursor) take(i, end int32) (fusedOp, bool) {
	for len(*fc) > 0 && (*fc)[0].at < i {
		*fc = (*fc)[1:]
	}
	if len(*fc) > 0 && (*fc)[0].at == i && i+(*fc)[0].n <= end {
		return (*fc)[0], true
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

// isLoadSD matches the memory-load form of MOVSD.
func isLoadSD(in *isa.Instr) bool { return in.Op == isa.MOVSD && isXmmMem(in) }

// matchFuse reports the pattern whose constituents start at instrs[i],
// and how many instructions it spans, or fuseNone. When one pattern
// extends another (LOAD; MOVRI; ADDR and LOAD; MOVRI; ADDR; MOVSD), the
// longer one matches. With noIndex set the index-access family is not
// tried, so its prefixes match instead (see shadowStream).
func matchFuse(instrs []isa.Instr, i int, noIndex bool) (fusePattern, int) {
	rest := instrs[i:]
	if !noIndex {
		if s, ok := matchIndex(rest); ok {
			return s.pattern(), s.n
		}
	}
	p := matchFixed(rest)
	return p, fixedLen[p]
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
	case a.Op == isa.MOVSD && isXmmMem(a) && len(rest) >= 2 && isXmmXmm(&rest[1]):
		switch rest[1].Op {
		case isa.ADDSD:
			return fuseLoadAddSD
		case isa.SUBSD:
			return fuseLoadSubSD
		case isa.MULSD:
			return fuseLoadMulSD
		}
	case a.Op == isa.MOVRI && isGprImm(a) && len(rest) >= 2:
		if b := &rest[1]; b.Op == isa.MOVQ && isXmmGpr(b) {
			return fuseConstSD
		}
		if isLoadSD(&rest[1]) {
			return fuseImmLoadSD
		}
	case a.Op == isa.MOVQ && isGprXmm(a) && len(rest) >= 4:
		b, c, d := &rest[1], &rest[2], &rest[3]
		if b.Op == isa.MOVRR && isGprGpr(b) && c.Op == isa.SHRI && isGprImm(c) &&
			d.Op == isa.CMPI && isGprImm(d) {
			return fuseFlagTest
		}
		if len(rest) >= 6 && b.Op == isa.MOVRI && isGprImm(b) && c.Op == isa.ANDR && isGprGpr(c) &&
			d.Op == isa.MOVRI && isGprImm(d) && rest[4].Op == isa.ORR && isGprGpr(&rest[4]) &&
			rest[5].Op == isa.MOVQ && isXmmGpr(&rest[5]) {
			return fuseStamp
		}
	}
	return fuseNone
}

// compileFrag pre-decodes an immutable straight-line fragment: ops[i] is
// instruction i's micro-op (nil for block terminators, which never run
// as micro-ops), and fused lists, in index order, the superinstruction
// starting at every index where a pattern matches. Every index is matched
// independently, so whichever leaders an assembly places inside the
// fragment, the block builder finds the superinstructions of each body
// starting at its first instruction. noIndex is matchFuse's.
func compileFrag(instrs []isa.Instr, noIndex bool) (ops []microOp, fused []fusedOp) {
	ops = make([]microOp, len(instrs))
	for i := range instrs {
		if endsBlock(instrs[i].Op) {
			continue
		}
		ops[i] = compileOp(&instrs[i])
		if p, n := matchFuse(instrs, i, noIndex); p != fuseNone {
			fused = append(fused, fusedOp{op: fuse(p, instrs[i:i+n]), at: int32(i), n: int32(n)})
		}
	}
	return ops, fused
}

// loadFault replays constituent k's out-of-bounds 8-byte load on the
// interpreter's path, which builds the exact fault, and records k for
// settlePartial.
func (m *Machine) loadFault(k int32, in *isa.Instr, ref isa.MemRef) error {
	m.faultOff = k
	_, err := m.load(in, ref, 8)
	return err
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
		return fuseIndex(s, c)
	case fuseLoadAddLoadSD:
		ld, d0, ref0 := &c[0], c[0].A.Reg, c[0].B.Mem
		d1, s1 := c[1].A.Reg, c[1].B.Reg
		fl, x2, ref2 := &c[2], c[2].A.Reg, c[2].B.Mem
		return func(m *Machine) error {
			v, ok := loadU64(m, ref0)
			if !ok {
				return m.loadFault(0, ld, ref0)
			}
			m.GPR[d0] = v
			m.GPR[d1] += m.GPR[s1]
			x, ok := loadU64(m, ref2)
			if !ok {
				return m.loadFault(2, fl, ref2)
			}
			m.XMM[x2][0], m.XMM[x2][1] = x, 0
			return nil
		}
	case fuseAddLoadSD:
		d0, s0 := c[0].A.Reg, c[0].B.Reg
		fl, x1, ref1 := &c[1], c[1].A.Reg, c[1].B.Mem
		return func(m *Machine) error {
			m.GPR[d0] += m.GPR[s0]
			x, ok := loadU64(m, ref1)
			if !ok {
				return m.loadFault(1, fl, ref1)
			}
			m.XMM[x1][0], m.XMM[x1][1] = x, 0
			return nil
		}
	case fuseImmLoadSD:
		d0, imm := c[0].A.Reg, uint64(c[0].B.Imm)
		fl, x1, ref1 := &c[1], c[1].A.Reg, c[1].B.Mem
		return func(m *Machine) error {
			m.GPR[d0] = imm
			x, ok := loadU64(m, ref1)
			if !ok {
				return m.loadFault(1, fl, ref1)
			}
			m.XMM[x1][0], m.XMM[x1][1] = x, 0
			return nil
		}
	case fuseLoadIncStore:
		ld, d0, ref0 := &c[0], c[0].A.Reg, c[0].B.Mem
		d1, imm := c[1].A.Reg, uint64(c[1].B.Imm)
		st, ref2, s2 := &c[2], c[2].A.Mem, c[2].B.Reg
		return func(m *Machine) error {
			v, ok := loadU64(m, ref0)
			if !ok {
				return m.loadFault(0, ld, ref0)
			}
			m.GPR[d0] = v
			m.GPR[d1] += imm
			addr, ok := storeU64(m, ref2, m.GPR[s2])
			if !ok {
				m.faultOff = 2
				return m.store(st, ref2, m.GPR[s2], 8)
			}
			if m.track != nil {
				m.track.markRange(addr, 8)
			}
			return nil
		}
	case fuseLoadAddSD, fuseLoadSubSD, fuseLoadMulSD:
		return fuseLoadArith(p, c)
	case fuseConstSD:
		d0, imm := c[0].A.Reg, uint64(c[0].B.Imm)
		x1, s1 := c[1].A.Reg, c[1].B.Reg
		return func(m *Machine) error {
			m.GPR[d0] = imm
			m.XMM[x1][0] = m.GPR[s1]
			return nil
		}
	case fuseFlagTest:
		d0, x0 := c[0].A.Reg, c[0].B.Reg
		d1, s1 := c[1].A.Reg, c[1].B.Reg
		d2, sh := c[2].A.Reg, uint64(c[2].B.Imm)&63
		a3, imm := c[3].A.Reg, uint64(c[3].B.Imm)
		return func(m *Machine) error {
			m.GPR[d0] = m.XMM[x0][0]
			m.GPR[d1] = m.GPR[s1]
			m.GPR[d2] >>= sh
			m.setCmp(m.GPR[a3], imm)
			return nil
		}
	case fuseStamp:
		d0, x0 := c[0].A.Reg, c[0].B.Reg
		d1, mask := c[1].A.Reg, uint64(c[1].B.Imm)
		d2, s2 := c[2].A.Reg, c[2].B.Reg
		d3, flag := c[3].A.Reg, uint64(c[3].B.Imm)
		d4, s4 := c[4].A.Reg, c[4].B.Reg
		x5, s5 := c[5].A.Reg, c[5].B.Reg
		return func(m *Machine) error {
			m.GPR[d0] = m.XMM[x0][0]
			m.GPR[d1] = mask
			m.GPR[d2] &= m.GPR[s2]
			m.GPR[d3] = flag
			m.GPR[d4] |= m.GPR[s4]
			m.XMM[x5][0] = m.GPR[s5]
			return nil
		}
	}
	panic("vm: fuse: unknown pattern")
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

// fuseIndex compiles an index-access instance c (shape s) into one
// branch-free micro-op per shape. Each adjust folds into a signed add of
// its constant (0 when absent); an absent adjust's scratch register is
// the register written after it, so its write is overwritten rather than
// branched around. Every scratch write a later constituent overwrites
// (T's rB, the row length) is skipped on the success path and made on
// the fault path that observes it. The matcher guarantees the memory
// operands read none of the registers written before them except the
// access's index, so the closures compute from locals.
func fuseIndex(s indexShape, c []isa.Instr) microOp {
	ld, rA, ref0 := &c[0], c[0].A.Reg, c[0].B.Mem
	rB, k0, adj0 := rA, uint64(0), uint64(0)
	if s.adj0 {
		rB, k0, adj0 = c[1].A.Reg, uint64(c[1].B.Imm), adjust(&c[2], c[1].B.Imm)
	}
	at := int32(s.n - 1)
	acc := &c[at]
	ref, x := acc.B.Mem, acc.A.Reg
	if s.store {
		ref, x = acc.A.Mem, acc.B.Reg
	}
	base, scale, disp := ref.Base, uint64(ref.Scale), uint64(int64(ref.Disp))
	if !s.twoD {
		if s.store {
			return func(m *Machine) error {
				v, ok := loadU64(m, ref0)
				if !ok {
					return m.loadFault(0, ld, ref0)
				}
				a := v + adj0
				m.GPR[rB] = k0
				m.GPR[rA] = a
				addr := m.GPR[base] + disp + a*scale
				if !store64At(m, addr, m.XMM[x][0]) {
					m.faultOff = at
					return m.store(acc, ref, m.XMM[x][0], 8)
				}
				if m.track != nil {
					m.track.markRange(addr, 8)
				}
				return nil
			}
		}
		return func(m *Machine) error {
			v, ok := loadU64(m, ref0)
			if !ok {
				return m.loadFault(0, ld, ref0)
			}
			a := v + adj0
			m.GPR[rB] = k0
			m.GPR[rA] = a
			w, ok := load64At(m, m.GPR[base]+disp+a*scale)
			if !ok {
				return m.loadFault(at, acc, ref)
			}
			m.XMM[x][0], m.XMM[x][1] = w, 0
			return nil
		}
	}
	rB = c[s.col].A.Reg
	n := uint64(c[s.col-2].B.Imm)
	rowOff := adj0 * n // (v+adj0)*n == v*n + adj0*n modulo 2^64
	if s.colConst {
		col := uint64(c[s.col].B.Imm)
		off := rowOff + col
		if s.store {
			return func(m *Machine) error {
				v, ok := loadU64(m, ref0)
				if !ok {
					return m.loadFault(0, ld, ref0)
				}
				a := v*n + off
				m.GPR[rB] = col
				m.GPR[rA] = a
				addr := m.GPR[base] + disp + a*scale
				if !store64At(m, addr, m.XMM[x][0]) {
					m.faultOff = at
					return m.store(acc, ref, m.XMM[x][0], 8)
				}
				if m.track != nil {
					m.track.markRange(addr, 8)
				}
				return nil
			}
		}
		return func(m *Machine) error {
			v, ok := loadU64(m, ref0)
			if !ok {
				return m.loadFault(0, ld, ref0)
			}
			a := v*n + off
			m.GPR[rB] = col
			m.GPR[rA] = a
			w, ok := load64At(m, m.GPR[base]+disp+a*scale)
			if !ok {
				return m.loadFault(at, acc, ref)
			}
			m.XMM[x][0], m.XMM[x][1] = w, 0
			return nil
		}
	}
	ld1, ref1, col1 := &c[s.col], c[s.col].B.Mem, int32(s.col)
	rC, k1, adj1 := rB, uint64(0), uint64(0)
	if s.adj1 {
		rC, k1, adj1 = c[s.col+1].A.Reg, uint64(c[s.col+1].B.Imm), adjust(&c[s.col+2], c[s.col+1].B.Imm)
	}
	if s.store {
		return func(m *Machine) error {
			v, ok := loadU64(m, ref0)
			if !ok {
				return m.loadFault(0, ld, ref0)
			}
			row := v*n + rowOff
			w, ok := loadU64(m, ref1)
			if !ok {
				m.GPR[rA], m.GPR[rB] = row, n
				return m.loadFault(col1, ld1, ref1)
			}
			col := w + adj1
			a := row + col
			m.GPR[rC] = k1
			m.GPR[rB] = col
			m.GPR[rA] = a
			addr := m.GPR[base] + disp + a*scale
			if !store64At(m, addr, m.XMM[x][0]) {
				m.faultOff = at
				return m.store(acc, ref, m.XMM[x][0], 8)
			}
			if m.track != nil {
				m.track.markRange(addr, 8)
			}
			return nil
		}
	}
	return func(m *Machine) error {
		v, ok := loadU64(m, ref0)
		if !ok {
			return m.loadFault(0, ld, ref0)
		}
		row := v*n + rowOff
		w, ok := loadU64(m, ref1)
		if !ok {
			m.GPR[rA], m.GPR[rB] = row, n
			return m.loadFault(col1, ld1, ref1)
		}
		col := w + adj1
		a := row + col
		m.GPR[rC] = k1
		m.GPR[rB] = col
		m.GPR[rA] = a
		u, ok := load64At(m, m.GPR[base]+disp+a*scale)
		if !ok {
			return m.loadFault(at, acc, ref)
		}
		m.XMM[x][0], m.XMM[x][1] = u, 0
		return nil
	}
}

// fuseLoadImm compiles LOAD; MOVRI; IMULR|ADDR|SUBR|CMPR, one closure per
// final opcode so the hot path carries no opcode switch.
func fuseLoadImm(p fusePattern, c []isa.Instr) microOp {
	ld, d0, ref := &c[0], c[0].A.Reg, c[0].B.Mem
	d1, imm := c[1].A.Reg, uint64(c[1].B.Imm)
	d2, s2 := c[2].A.Reg, c[2].B.Reg
	switch p {
	case fuseLoadImmMul:
		return func(m *Machine) error {
			v, ok := loadU64(m, ref)
			if !ok {
				return m.loadFault(0, ld, ref)
			}
			m.GPR[d0] = v
			m.GPR[d1] = imm
			m.GPR[d2] = uint64(int64(m.GPR[d2]) * int64(m.GPR[s2]))
			return nil
		}
	case fuseLoadImmAdd:
		return func(m *Machine) error {
			v, ok := loadU64(m, ref)
			if !ok {
				return m.loadFault(0, ld, ref)
			}
			m.GPR[d0] = v
			m.GPR[d1] = imm
			m.GPR[d2] += m.GPR[s2]
			return nil
		}
	case fuseLoadImmSub:
		return func(m *Machine) error {
			v, ok := loadU64(m, ref)
			if !ok {
				return m.loadFault(0, ld, ref)
			}
			m.GPR[d0] = v
			m.GPR[d1] = imm
			m.GPR[d2] -= m.GPR[s2]
			return nil
		}
	default: // fuseLoadImmCmp
		return func(m *Machine) error {
			v, ok := loadU64(m, ref)
			if !ok {
				return m.loadFault(0, ld, ref)
			}
			m.GPR[d0] = v
			m.GPR[d1] = imm
			m.setCmp(m.GPR[d2], m.GPR[s2])
			return nil
		}
	}
}

// fuseLoadArith compiles MOVSD xmm, mem; ADDSD|SUBSD|MULSD xmm, xmm. The
// load zeroes the high lane, as MOVSD's memory form does; the arithmetic
// writes lane 0 only.
func fuseLoadArith(p fusePattern, c []isa.Instr) microOp {
	ld, x0, ref := &c[0], c[0].A.Reg, c[0].B.Mem
	d1, s1 := c[1].A.Reg, c[1].B.Reg
	switch p {
	case fuseLoadAddSD:
		return func(m *Machine) error {
			v, ok := loadU64(m, ref)
			if !ok {
				return m.loadFault(0, ld, ref)
			}
			m.XMM[x0][0], m.XMM[x0][1] = v, 0
			m.XMM[d1][0] = math.Float64bits(arith64(isa.ADDSD, math.Float64frombits(m.XMM[d1][0]), math.Float64frombits(m.XMM[s1][0])))
			return nil
		}
	case fuseLoadSubSD:
		return func(m *Machine) error {
			v, ok := loadU64(m, ref)
			if !ok {
				return m.loadFault(0, ld, ref)
			}
			m.XMM[x0][0], m.XMM[x0][1] = v, 0
			m.XMM[d1][0] = math.Float64bits(arith64(isa.SUBSD, math.Float64frombits(m.XMM[d1][0]), math.Float64frombits(m.XMM[s1][0])))
			return nil
		}
	default: // fuseLoadMulSD
		return func(m *Machine) error {
			v, ok := loadU64(m, ref)
			if !ok {
				return m.loadFault(0, ld, ref)
			}
			m.XMM[x0][0], m.XMM[x0][1] = v, 0
			m.XMM[d1][0] = math.Float64bits(arith64(isa.MULSD, math.Float64frombits(m.XMM[d1][0]), math.Float64frombits(m.XMM[s1][0])))
			return nil
		}
	}
}
