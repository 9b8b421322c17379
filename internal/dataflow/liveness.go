package dataflow

import "fpmix/internal/isa"

// bitset is a fixed-width bit vector.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) get(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }
func (b bitset) set(i int)      { b[i>>6] |= 1 << uint(i&63) }
func (b bitset) clear(i int)    { b[i>>6] &^= 1 << uint(i&63) }

// or merges src into b, reporting whether b changed.
func (b bitset) or(src bitset) bool {
	changed := false
	for i, w := range src {
		if b[i]|w != b[i] {
			b[i] |= w
			changed = true
		}
	}
	return changed
}

func (b bitset) copyFrom(src bitset) { copy(b, src) }

// empty reports whether no bit is set.
func (b bitset) empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

func laneLoc(xmm uint8, lane int) int { return locLane + 2*int(xmm) + lane }

// regEffect describes an instruction's register reads and full
// overwrites, for the liveness pass. Memory locations are not tracked by
// liveness (memory is conservatively always live); memory operands
// contribute base/index register uses.
type regEffect struct {
	uses []int
	defs []int
}

// regEffects computes the use/def sets of in over the register location
// space. Unknown instructions conservatively use everything and define
// nothing.
func regEffects(in isa.Instr) regEffect {
	var e regEffect
	use := func(l ...int) { e.uses = append(e.uses, l...) }
	def := func(l ...int) { e.defs = append(e.defs, l...) }
	memUse := func(m isa.MemRef) {
		use(locGPR + int(m.Base))
		if m.HasIndex {
			use(locGPR + int(m.Index))
		}
	}
	gpr := func(op isa.Operand) int { return locGPR + int(op.Reg) }
	lane0 := func(op isa.Operand) int { return laneLoc(op.Reg, 0) }
	lane1 := func(op isa.Operand) int { return laneLoc(op.Reg, 1) }

	// Source operand helper: FP source that is either an XMM register
	// (use given lanes) or memory (use address registers).
	srcFP := func(op isa.Operand, both bool) {
		switch op.Kind {
		case isa.KindXMM:
			use(lane0(op))
			if both {
				use(lane1(op))
			}
		case isa.KindMem:
			memUse(op.Mem)
		}
	}

	switch in.Op {
	case isa.NOP, isa.HALT, isa.RET, isa.CALL, isa.JMP:
		// no register effects (CALL/RET stack traffic is return
		// addresses only)
	case isa.JE, isa.JNE, isa.JL, isa.JLE, isa.JG, isa.JGE,
		isa.JB, isa.JAE, isa.JA, isa.JBE:
		// condition flags are not tracked

	case isa.SYSCALL:
		switch in.A.Imm {
		case isa.SysOutF64, isa.SysOutF32:
			use(laneLoc(0, 0))
		case isa.SysOutI64:
			use(locGPR + int(isa.RAX))
		case isa.SysMPIRank, isa.SysMPISize:
			def(locGPR + int(isa.RAX))
		case isa.SysMPIBarrier:
		case isa.SysMPISendF64, isa.SysMPIRecvF64, isa.SysMPIBcastF64:
			use(locGPR+int(isa.RDI), locGPR+int(isa.RSI), locGPR+int(isa.RDX))
		case isa.SysMPIAllreduce:
			use(locGPR+int(isa.RDI), locGPR+int(isa.RSI))
		default:
			// Unknown host call: conservatively reads everything.
			for l := 0; l < nRegLocs; l++ {
				use(l)
			}
		}

	case isa.MOVRI:
		def(gpr(in.A))
	case isa.MOVRR:
		def(gpr(in.A))
		use(gpr(in.B))
	case isa.LOAD:
		def(gpr(in.A))
		memUse(in.B.Mem)
	case isa.STORE:
		use(gpr(in.B))
		memUse(in.A.Mem)
	case isa.LEA:
		def(gpr(in.A))
		memUse(in.B.Mem)

	case isa.ADDR, isa.SUBR, isa.IMULR, isa.ANDR, isa.ORR, isa.XORR, isa.IDIVR:
		use(gpr(in.A), gpr(in.B))
		def(gpr(in.A))
	case isa.ADDI, isa.SUBI, isa.IMULI, isa.ANDI, isa.ORI, isa.XORI,
		isa.SHLI, isa.SHRI:
		use(gpr(in.A))
		def(gpr(in.A))
	case isa.CMPR, isa.TESTR:
		use(gpr(in.A), gpr(in.B))
	case isa.CMPI, isa.TESTI:
		use(gpr(in.A))

	case isa.PUSH:
		use(gpr(in.A))
	case isa.POP:
		def(gpr(in.A))
	case isa.PUSHX:
		use(lane0(in.A), lane1(in.A))
	case isa.POPX:
		def(lane0(in.A), lane1(in.A))

	case isa.MOVSD:
		switch {
		case in.A.Kind == isa.KindXMM && in.B.Kind == isa.KindXMM:
			use(lane0(in.B))
			def(lane0(in.A))
		case in.A.Kind == isa.KindXMM: // load zeroes the upper lane
			memUse(in.B.Mem)
			def(lane0(in.A), lane1(in.A))
		default: // store
			use(lane0(in.B))
			memUse(in.A.Mem)
		}
	case isa.MOVSS:
		switch {
		case in.A.Kind == isa.KindXMM && in.B.Kind == isa.KindXMM:
			use(lane0(in.B), lane0(in.A)) // merges into dst's low 32 bits
		case in.A.Kind == isa.KindXMM: // load zeroes bits 32..127
			memUse(in.B.Mem)
			def(lane0(in.A), lane1(in.A))
		default:
			use(lane0(in.B))
			memUse(in.A.Mem)
		}
	case isa.MOVAPD:
		switch {
		case in.A.Kind == isa.KindXMM && in.B.Kind == isa.KindXMM:
			use(lane0(in.B), lane1(in.B))
			def(lane0(in.A), lane1(in.A))
		case in.A.Kind == isa.KindXMM:
			memUse(in.B.Mem)
			def(lane0(in.A), lane1(in.A))
		default:
			use(lane0(in.B), lane1(in.B))
			memUse(in.A.Mem)
		}
	case isa.MOVQ:
		if in.A.Kind == isa.KindXMM {
			def(lane0(in.A))
			use(gpr(in.B))
		} else {
			def(gpr(in.A))
			use(lane0(in.B))
		}
	case isa.MOVHQ:
		if in.A.Kind == isa.KindXMM {
			def(lane1(in.A))
			use(gpr(in.B))
		} else {
			def(gpr(in.A))
			use(lane1(in.B))
		}

	case isa.ADDSD, isa.SUBSD, isa.MULSD, isa.DIVSD, isa.MINSD, isa.MAXSD:
		use(lane0(in.A))
		srcFP(in.B, false)
		def(lane0(in.A))
	case isa.SQRTSD, isa.SINSD, isa.COSSD, isa.EXPSD, isa.LOGSD:
		srcFP(in.B, false)
		def(lane0(in.A))
	case isa.UCOMISD, isa.UCOMISS:
		use(lane0(in.A))
		srcFP(in.B, false)
	case isa.ANDPD, isa.ORPD, isa.XORPD:
		use(lane0(in.A), lane1(in.A))
		srcFP(in.B, true)
		def(lane0(in.A), lane1(in.A))

	case isa.CVTSD2SS, isa.CVTSI2SS:
		// Write the low 32 bits of dst lane 0, preserving the rest.
		use(lane0(in.A))
		if in.Op == isa.CVTSD2SS {
			srcFP(in.B, false)
		} else {
			use(gpr(in.B))
		}
	case isa.CVTSS2SD:
		srcFP(in.B, false)
		def(lane0(in.A))
	case isa.CVTSI2SD:
		use(gpr(in.B))
		def(lane0(in.A))
	case isa.CVTTSD2SI, isa.CVTTSS2SI:
		srcFP(in.B, false)
		def(gpr(in.A))

	case isa.ADDSS, isa.SUBSS, isa.MULSS, isa.DIVSS, isa.MINSS, isa.MAXSS:
		use(lane0(in.A))
		srcFP(in.B, false)
		// merges into the low 32 bits only: no full def
	case isa.SQRTSS, isa.SINSS, isa.COSSS, isa.EXPSS, isa.LOGSS:
		use(lane0(in.A))
		srcFP(in.B, false)

	case isa.ADDPD, isa.SUBPD, isa.MULPD, isa.DIVPD:
		use(lane0(in.A), lane1(in.A))
		srcFP(in.B, true)
		def(lane0(in.A), lane1(in.A))
	case isa.SQRTPD:
		srcFP(in.B, true)
		def(lane0(in.A), lane1(in.A))
	case isa.ADDPS, isa.SUBPS, isa.MULPS, isa.DIVPS:
		use(lane0(in.A), lane1(in.A))
		srcFP(in.B, true)
		def(lane0(in.A), lane1(in.A))
	case isa.SQRTPS:
		srcFP(in.B, true)
		def(lane0(in.A), lane1(in.A))

	default:
		// Unknown opcode: conservatively reads everything, defines
		// nothing.
		for l := 0; l < nRegLocs; l++ {
			use(l)
		}
	}
	return e
}

// liveness computes, for every instruction, the set of register
// locations live immediately after it (backward may-analysis over the
// supergraph).
func (a *analysis) liveness() []bitset {
	n := len(a.instrs)
	effects := make([]regEffect, n)
	for i, in := range a.instrs {
		effects[i] = regEffects(in)
	}
	liveIn := make([]bitset, n)
	liveOut := make([]bitset, n)
	for i := 0; i < n; i++ {
		liveIn[i] = newBitset(nRegLocs)
		liveOut[i] = newBitset(nRegLocs)
	}
	// Worklist seeded in reverse order (roughly topological for the
	// backward direction).
	inList := make([]bool, n)
	work := make([]int, 0, n)
	for i := n - 1; i >= 0; i-- {
		work = append(work, i)
		inList[i] = true
	}
	tmp := newBitset(nRegLocs)
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		inList[i] = false

		out := liveOut[i]
		for _, s := range a.succs[i] {
			out.or(liveIn[s])
		}
		tmp.copyFrom(out)
		for _, d := range effects[i].defs {
			tmp.clear(d)
		}
		for _, u := range effects[i].uses {
			tmp.set(u)
		}
		if liveIn[i].or(tmp) {
			for _, p := range a.preds[i] {
				if !inList[p] {
					inList[p] = true
					work = append(work, int(p))
				}
			}
		}
	}
	return liveOut
}

// scratchLocs are the locations the replacement snippets use as scratch:
// r14, r15 and both lanes of xmm14 and xmm15.
var scratchLocs = []int{
	locGPR + int(isa.R14), locGPR + int(isa.R15),
	laneLoc(14, 0), laneLoc(14, 1), laneLoc(15, 0), laneLoc(15, 1),
}

// scratchDead reports whether instruction i neither references the
// snippet scratch registers nor leaves any of them live.
func (a *analysis) scratchDead(i int, liveOut []bitset) bool {
	in := a.instrs[i]
	for _, op := range []isa.Operand{in.A, in.B} {
		switch op.Kind {
		case isa.KindGPR:
			if op.Reg == isa.R14 || op.Reg == isa.R15 {
				return false
			}
		case isa.KindXMM:
			if op.Reg == 14 || op.Reg == 15 {
				return false
			}
		case isa.KindMem:
			if op.Mem.Base == isa.R14 || op.Mem.Base == isa.R15 {
				return false
			}
			if op.Mem.HasIndex && (op.Mem.Index == isa.R14 || op.Mem.Index == isa.R15) {
				return false
			}
		}
	}
	for _, l := range scratchLocs {
		if liveOut[i].get(l) {
			return false
		}
	}
	return true
}
