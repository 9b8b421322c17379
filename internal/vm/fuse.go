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
	// Indexed FP loads, MOVSD xmm, mem absorbing the last steps of its
	// index computation: LOAD; ADDR; MOVSD (the tail of a 2-D index),
	// LOAD; MOVRI; ADDR; MOVSD (a[k+c]), ADDR; MOVSD, MOVRI; MOVSD (a
	// constant index) and LOAD; MOVSD (a[k]).
	fuseLoadAddLoadSD
	fuseLoadImmAddLoadSD
	fuseAddLoadSD
	fuseImmLoadSD
	fuseLoadLoadSD
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

// fusePatternLen is each pattern's constituent count.
var fusePatternLen = [numFusePatterns]int32{
	fuseLoadImmMul:       3,
	fuseLoadImmAdd:       3,
	fuseLoadImmSub:       3,
	fuseLoadImmCmp:       3,
	fuseLoadAddLoadSD:    3,
	fuseLoadImmAddLoadSD: 4,
	fuseAddLoadSD:        2,
	fuseImmLoadSD:        2,
	fuseLoadLoadSD:       2,
	fuseLoadIncStore:     3,
	fuseLoadAddSD:        2,
	fuseLoadSubSD:        2,
	fuseLoadMulSD:        2,
	fuseConstSD:          2,
	fuseFlagTest:         4,
	fuseStamp:            6,
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
// or fuseNone. When one pattern extends another (LOAD; MOVRI; ADDR and
// LOAD; MOVRI; ADDR; MOVSD), the longer one matches.
func matchFuse(instrs []isa.Instr, i int) fusePattern {
	rest := instrs[i:]
	a := &rest[0]
	switch {
	case a.Op == isa.LOAD && isGprMem(a) && len(rest) >= 2:
		b := &rest[1]
		if isLoadSD(b) {
			return fuseLoadLoadSD
		}
		if len(rest) < 3 {
			break
		}
		c := &rest[2]
		switch {
		case b.Op == isa.MOVRI && isGprImm(b) && isGprGpr(c):
			switch c.Op {
			case isa.IMULR:
				return fuseLoadImmMul
			case isa.ADDR:
				if len(rest) >= 4 && isLoadSD(&rest[3]) {
					return fuseLoadImmAddLoadSD
				}
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
// starting at its first instruction.
func compileFrag(instrs []isa.Instr) (ops []microOp, fused []fusedOp) {
	ops = make([]microOp, len(instrs))
	for i := range instrs {
		if endsBlock(instrs[i].Op) {
			continue
		}
		ops[i] = compileOp(&instrs[i])
		if p := matchFuse(instrs, i); p != fuseNone {
			n := fusePatternLen[p]
			fused = append(fused, fusedOp{op: fuse(p, instrs[i:i+int(n)]), at: int32(i), n: n})
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
	case fuseLoadImmAddLoadSD:
		ld, d0, ref0 := &c[0], c[0].A.Reg, c[0].B.Mem
		d1, imm := c[1].A.Reg, uint64(c[1].B.Imm)
		d2, s2 := c[2].A.Reg, c[2].B.Reg
		fl, x3, ref3 := &c[3], c[3].A.Reg, c[3].B.Mem
		return func(m *Machine) error {
			v, ok := loadU64(m, ref0)
			if !ok {
				return m.loadFault(0, ld, ref0)
			}
			m.GPR[d0] = v
			m.GPR[d1] = imm
			m.GPR[d2] += m.GPR[s2]
			x, ok := loadU64(m, ref3)
			if !ok {
				return m.loadFault(3, fl, ref3)
			}
			m.XMM[x3][0], m.XMM[x3][1] = x, 0
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
	case fuseLoadLoadSD:
		ld, d0, ref0 := &c[0], c[0].A.Reg, c[0].B.Mem
		fl, x1, ref1 := &c[1], c[1].A.Reg, c[1].B.Mem
		return func(m *Machine) error {
			v, ok := loadU64(m, ref0)
			if !ok {
				return m.loadFault(0, ld, ref0)
			}
			m.GPR[d0] = v
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
			m.XMM[d1][0] = math.Float64bits(math.Float64frombits(m.XMM[d1][0]) + math.Float64frombits(m.XMM[s1][0]))
			return nil
		}
	case fuseLoadSubSD:
		return func(m *Machine) error {
			v, ok := loadU64(m, ref)
			if !ok {
				return m.loadFault(0, ld, ref)
			}
			m.XMM[x0][0], m.XMM[x0][1] = v, 0
			m.XMM[d1][0] = math.Float64bits(math.Float64frombits(m.XMM[d1][0]) - math.Float64frombits(m.XMM[s1][0]))
			return nil
		}
	default: // fuseLoadMulSD
		return func(m *Machine) error {
			v, ok := loadU64(m, ref)
			if !ok {
				return m.loadFault(0, ld, ref)
			}
			m.XMM[x0][0], m.XMM[x0][1] = v, 0
			m.XMM[d1][0] = math.Float64bits(math.Float64frombits(m.XMM[d1][0]) * math.Float64frombits(m.XMM[s1][0]))
			return nil
		}
	}
}
