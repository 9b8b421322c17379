package errbound

import (
	"math"

	"fpmix/internal/dataflow"
	"fpmix/internal/isa"
)

// iSafe bounds integer interval endpoints for overflow-free arithmetic:
// sums and differences of values within ±2^61 cannot wrap.
const iSafe = int64(1) << 61

// maxAccOps caps the number of rounding events an accumulator chain may
// fold between load and store; the clamp pad's 2^-48 slack (16x the
// 2^-52 per-op bound) covers exactly this many.
const maxAccOps = 16

func ibounds(v *aval) (int64, int64, bool) {
	if v.iTop {
		return 0, 0, false
	}
	return v.ilo, v.ihi, true
}

func killCmp(cmp *cmpFact, r uint8) {
	if cmp.valid && (r == cmp.aReg || (!cmp.isImm && r == cmp.bReg)) {
		cmp.valid = false
	}
}

func (az *analyzer) setGPR(st *state, cmp *cmpFact, r uint8, v aval) {
	st.vals[gprLoc(r)] = v
	st.alias[r] = -1
	killCmp(cmp, r)
}

// killAccCell strips accumulator provenance referring to cell c from
// every location: once c is stored to, outstanding copies are no longer
// "c's value plus a delta".
func (az *analyzer) killAccCell(st *state, c int) {
	for i := range st.vals {
		if st.vals[i].acc == int32(c) {
			st.vals[i].acc = -1
		}
	}
}

func (az *analyzer) killAlias(st *state, c int) {
	for r := range st.alias {
		if st.alias[r] == int32(c) {
			st.alias[r] = -1
		}
	}
}

// havocMem forgets everything about memory: all cells go to top, all
// cell generations are bumped (no load correlates across the havoc), and
// all accumulator provenance dies.
func (az *analyzer) havocMem(st *state) {
	for c := range az.cells {
		st.vals[nRegLoc+c] = top()
	}
	for i := range st.vals {
		st.vals[i].acc = -1
	}
	for c := range az.cellGen {
		az.cellGen[c] = az.gen
		az.gen++
	}
	for r := range st.alias {
		st.alias[r] = -1
	}
}

// loadVal abstracts an 8-byte read of m. Strong slot reads mint the
// cell's current generation as a noise symbol (equal symbols on one
// straight-line walk mean equal concrete values); single-cell slot and
// extent reads start accumulator provenance.
func (az *analyzer) loadVal(st *state, m isa.MemRef, i int) (aval, int32) {
	cells, strong := az.cellsOf(m, false)
	if len(cells) == 0 {
		return top(), -1
	}
	if len(cells) == 1 {
		c := cells[0]
		v := st.vals[nRegLoc+c]
		v.sym, v.symNeg = 0, false
		v.acc = -1
		kind := az.cells[c].Kind
		alias := int32(-1)
		if strong && kind == dataflow.CellSlot {
			v.sym = az.cellGen[c]
			alias = int32(c)
		}
		if kind == dataflow.CellSlot || kind == dataflow.CellExtent {
			v.acc = int32(c)
			v.accLo, v.accHi = 0, 0
			v.accN = 0
		}
		v.src = int32(i)
		return v, alias
	}
	v := st.vals[nRegLoc+cells[0]]
	for _, c := range cells[1:] {
		w := st.vals[nRegLoc+c]
		v.join(&w)
	}
	v.sym, v.symNeg = 0, false
	v.acc = -1
	v.src = int32(i)
	return v, -1
}

// storeVal abstracts an 8-byte write of v through m: record the raw
// value for clamp inference, havoc on summary-reaching stores, cap at a
// proven clamp, then strong or weak update plus the generation bump and
// provenance kills every store implies.
func (az *analyzer) storeVal(st *state, m isa.MemRef, v aval, i int) {
	cells, strong := az.cellsOf(m, false)
	az.recordStore(i, cells, v)
	for _, c := range cells {
		if c == az.summary {
			az.sawWild = true
			az.havocMem(st)
			return
		}
	}
	for _, c := range cells {
		nv := v
		nv.sym, nv.symNeg = 0, false
		nv.acc = -1
		if cl, ok := az.clamps[c]; ok {
			clampF(&nv, cl)
		}
		if strong && len(cells) == 1 {
			st.vals[nRegLoc+c] = nv
		} else {
			old := st.vals[nRegLoc+c]
			old.join(&nv)
			st.vals[nRegLoc+c] = old
		}
		az.cellGen[c] = az.gen
		az.gen++
		az.killAccCell(st, c)
		az.killAlias(st, c)
	}
}

// clampF caps a stored abstract value at a proven accumulator clamp
// (meet of intervals; the clamp wins if they are disjoint, which can
// happen transiently while the clamped fixpoint settles).
func clampF(v *aval, cl clampInfo) {
	lo, hi := cl.lo, cl.hi
	if !v.mayNaN && !v.emptyF() {
		if v.lo > lo {
			lo = v.lo
		}
		if v.hi < hi {
			hi = v.hi
		}
		if lo > hi {
			lo, hi = cl.lo, cl.hi
		}
	}
	v.lo, v.hi = lo, hi
	v.mayNaN = false
	v.topI()
}

func (az *analyzer) record(i int, a, b, r aval) {
	if !az.recording {
		return
	}
	rec := az.sites[i]
	if rec == nil {
		az.sites[i] = &siteRec{a: a, b: b, r: r, seen: true}
		return
	}
	rec.a.join(&a)
	rec.b.join(&b)
	rec.r.join(&r)
}

func (az *analyzer) recordStore(i int, cells []int, v aval) {
	if !az.recording {
		return
	}
	rec := az.stores[i]
	if rec == nil {
		az.stores[i] = &storeRec{cells: append([]int(nil), cells...), val: v, seen: true}
		return
	}
	rec.val.join(&v)
}

// mkInt builds the result of an integer ALU op.
func mkInt(lo, hi int64, ok bool, i int) aval {
	if !ok {
		v := top()
		v.src = int32(i)
		return v
	}
	return fromIRange(lo, hi, int32(i))
}

// transfer applies one instruction's abstract semantics.
func (az *analyzer) transfer(i int, in *isa.Instr, st *state, cmp *cmpFact) {
	switch in.Op {
	case isa.NOP, isa.HALT, isa.JMP,
		isa.JE, isa.JNE, isa.JL, isa.JLE, isa.JG, isa.JGE,
		isa.JB, isa.JAE, isa.JA, isa.JBE:
		return

	case isa.MOVRI:
		az.setGPR(st, cmp, in.A.Reg, fromBits(uint64(in.B.Imm), int32(i)))
	case isa.MOVRR:
		v := st.vals[gprLoc(in.B.Reg)]
		al := st.alias[in.B.Reg]
		az.setGPR(st, cmp, in.A.Reg, v)
		st.alias[in.A.Reg] = al
	case isa.LOAD:
		v, alias := az.loadVal(st, in.B.Mem, i)
		az.setGPR(st, cmp, in.A.Reg, v)
		st.alias[in.A.Reg] = alias
	case isa.STORE:
		az.storeVal(st, in.A.Mem, st.vals[gprLoc(in.B.Reg)], i)
	case isa.LEA:
		az.setGPR(st, cmp, in.A.Reg, az.addrVal(st, in.B.Mem, i))

	case isa.ADDR, isa.ADDI, isa.SUBR, isa.SUBI, isa.IMULR, isa.IMULI,
		isa.ANDR, isa.ANDI, isa.ORR, isa.ORI, isa.XORR, isa.XORI,
		isa.SHLI, isa.SHRI, isa.IDIVR:
		az.intALU(st, cmp, in, i)

	case isa.CMPR:
		*cmp = cmpFact{valid: true, aReg: in.A.Reg, bReg: in.B.Reg}
	case isa.CMPI:
		*cmp = cmpFact{valid: true, aReg: in.A.Reg, imm: in.B.Imm, isImm: true}
	case isa.TESTR, isa.TESTI, isa.UCOMISS:
		cmp.valid = false

	case isa.CALL:
		az.adjGPR(st, isa.RSP, -8)
		az.stackPush(st, top())
	case isa.RET:
		az.adjGPR(st, isa.RSP, 8)
	case isa.PUSH:
		az.adjGPR(st, isa.RSP, -8)
		az.stackPush(st, st.vals[gprLoc(in.A.Reg)])
	case isa.POP:
		az.setGPR(st, cmp, in.A.Reg, az.stackPop(st, i))
		az.adjGPR(st, isa.RSP, 8)
	case isa.PUSHX:
		az.adjGPR(st, isa.RSP, -16)
		az.stackPush(st, st.vals[xmmLoc(in.A.Reg, 0)])
		az.stackPush(st, st.vals[xmmLoc(in.A.Reg, 1)])
	case isa.POPX:
		v := az.stackPop(st, i)
		st.vals[xmmLoc(in.A.Reg, 0)] = v
		st.vals[xmmLoc(in.A.Reg, 1)] = v
		az.adjGPR(st, isa.RSP, 16)

	case isa.SYSCALL:
		az.syscall(st, cmp, in, i)

	case isa.MOVSD:
		az.movsd(st, cmp, in, i)
	case isa.MOVSS:
		az.movss(st, in, i)
	case isa.MOVAPD:
		az.movapd(st, in, i)
	case isa.MOVQ:
		if in.A.Kind == isa.KindGPR {
			az.setGPR(st, cmp, in.A.Reg, st.vals[xmmLoc(in.B.Reg, 0)])
		} else {
			st.vals[xmmLoc(in.A.Reg, 0)] = st.vals[gprLoc(in.B.Reg)]
		}
	case isa.MOVHQ:
		if in.A.Kind == isa.KindGPR {
			az.setGPR(st, cmp, in.A.Reg, st.vals[xmmLoc(in.B.Reg, 1)])
		} else {
			st.vals[xmmLoc(in.A.Reg, 1)] = st.vals[gprLoc(in.B.Reg)]
		}

	case isa.ANDPD, isa.ORPD, isa.XORPD:
		if in.Op == isa.XORPD && in.B.Kind == isa.KindXMM && in.A.Reg == in.B.Reg {
			z := fromBits(0, int32(i))
			st.vals[xmmLoc(in.A.Reg, 0)] = z
			st.vals[xmmLoc(in.A.Reg, 1)] = z
			return
		}
		t := top()
		t.src = int32(i)
		st.vals[xmmLoc(in.A.Reg, 0)] = t
		st.vals[xmmLoc(in.A.Reg, 1)] = t

	case isa.ADDSD, isa.SUBSD, isa.MULSD, isa.DIVSD, isa.MINSD, isa.MAXSD:
		a := st.vals[xmmLoc(in.A.Reg, 0)]
		b := az.fpSrc(st, in, i)
		r := az.fpArith(in.Op, a, b, i)
		az.record(i, a, b, r)
		st.vals[xmmLoc(in.A.Reg, 0)] = r
	case isa.SQRTSD:
		b := az.fpSrc(st, in, i)
		r := fpSqrt(b, i)
		az.record(i, aval{}, b, r)
		st.vals[xmmLoc(in.A.Reg, 0)] = r
	case isa.SINSD, isa.COSSD, isa.EXPSD, isa.LOGSD:
		b := az.fpSrc(st, in, i)
		r := fpTransc(in.Op, b, i)
		az.record(i, aval{}, b, r)
		st.vals[xmmLoc(in.A.Reg, 0)] = r
	case isa.UCOMISD:
		a := st.vals[xmmLoc(in.A.Reg, 0)]
		b := az.fpSrc(st, in, i)
		az.record(i, a, b, aval{})
		cmp.valid = false

	case isa.CVTSI2SD:
		b := st.vals[gprLoc(in.B.Reg)]
		r := cvtIToF(b, i)
		az.record(i, aval{}, b, r)
		st.vals[xmmLoc(in.A.Reg, 0)] = r
	case isa.CVTTSD2SI:
		b := st.vals[xmmLoc(in.B.Reg, 0)]
		az.record(i, aval{}, b, aval{})
		az.setGPR(st, cmp, in.A.Reg, cvtFToI(b, i))
	case isa.CVTSD2SS, isa.CVTSS2SD, isa.CVTSI2SS:
		t := top()
		t.src = int32(i)
		st.vals[xmmLoc(in.A.Reg, 0)] = t
	case isa.CVTTSS2SI:
		t := top()
		t.src = int32(i)
		az.setGPR(st, cmp, in.A.Reg, t)

	case isa.ADDSS, isa.SUBSS, isa.MULSS, isa.DIVSS, isa.SQRTSS,
		isa.MINSS, isa.MAXSS, isa.SINSS, isa.COSSS, isa.EXPSS, isa.LOGSS:
		t := top()
		t.src = int32(i)
		st.vals[xmmLoc(in.A.Reg, 0)] = t

	case isa.ADDPD, isa.SUBPD, isa.MULPD, isa.DIVPD:
		base := packedScalar(in.Op)
		a0 := st.vals[xmmLoc(in.A.Reg, 0)]
		a1 := st.vals[xmmLoc(in.A.Reg, 1)]
		b0, b1 := az.fpSrcWide(st, in, i)
		r0 := az.fpArith(base, a0, b0, i)
		r1 := az.fpArith(base, a1, b1, i)
		az.record(i, a0, b0, r0)
		st.vals[xmmLoc(in.A.Reg, 0)] = r0
		st.vals[xmmLoc(in.A.Reg, 1)] = r1
	case isa.SQRTPD:
		b0, b1 := az.fpSrcWide(st, in, i)
		r0 := fpSqrt(b0, i)
		r1 := fpSqrt(b1, i)
		az.record(i, aval{}, b0, r0)
		st.vals[xmmLoc(in.A.Reg, 0)] = r0
		st.vals[xmmLoc(in.A.Reg, 1)] = r1

	case isa.ADDPS, isa.SUBPS, isa.MULPS, isa.DIVPS, isa.SQRTPS:
		t := top()
		t.src = int32(i)
		st.vals[xmmLoc(in.A.Reg, 0)] = t
		st.vals[xmmLoc(in.A.Reg, 1)] = t
	}
}

func packedScalar(op isa.Op) isa.Op {
	switch op {
	case isa.ADDPD:
		return isa.ADDSD
	case isa.SUBPD:
		return isa.SUBSD
	case isa.MULPD:
		return isa.MULSD
	default:
		return isa.DIVSD
	}
}

// addrVal computes an effective address abstractly (for LEA).
func (az *analyzer) addrVal(st *state, m isa.MemRef, i int) aval {
	lo, hi, ok := ibounds(&st.vals[gprLoc(m.Base)])
	if !ok || lo < -iSafe || hi > iSafe {
		v := top()
		v.src = int32(i)
		return v
	}
	lo += int64(m.Disp)
	hi += int64(m.Disp)
	if m.HasIndex {
		il, ih, iok := ibounds(&st.vals[gprLoc(m.Index)])
		sc := int64(m.Scale)
		if !iok || il < -iSafe/8 || ih > iSafe/8 || sc < 1 || sc > 8 {
			v := top()
			v.src = int32(i)
			return v
		}
		lo += il * sc
		hi += ih * sc
	}
	return mkInt(lo, hi, true, i)
}

func (az *analyzer) adjGPR(st *state, r uint8, delta int64) {
	v := st.vals[gprLoc(r)]
	if lo, hi, ok := ibounds(&v); ok && lo >= -iSafe && hi <= iSafe {
		st.vals[gprLoc(r)] = fromIRange(lo+delta, hi+delta, v.src)
	} else {
		st.vals[gprLoc(r)] = top()
	}
	st.alias[r] = -1
}

func (az *analyzer) stackPush(st *state, v aval) {
	if az.stack < 0 {
		return
	}
	v.sym, v.symNeg = 0, false
	v.acc = -1
	old := st.vals[nRegLoc+az.stack]
	old.join(&v)
	st.vals[nRegLoc+az.stack] = old
	az.cellGen[az.stack] = az.gen
	az.gen++
	az.killAccCell(st, az.stack)
}

func (az *analyzer) stackPop(st *state, i int) aval {
	if az.stack < 0 {
		return top()
	}
	v := st.vals[nRegLoc+az.stack]
	v.sym, v.symNeg = 0, false
	v.acc = -1
	v.src = int32(i)
	return v
}

func (az *analyzer) intALU(st *state, cmp *cmpFact, in *isa.Instr, i int) {
	d := in.A.Reg
	alo, ahi, aok := ibounds(&st.vals[gprLoc(d)])
	var blo, bhi int64
	bok := true
	switch in.Op {
	case isa.ADDI, isa.SUBI, isa.IMULI, isa.ANDI, isa.ORI, isa.XORI, isa.SHLI, isa.SHRI:
		blo, bhi = in.B.Imm, in.B.Imm
	default:
		blo, bhi, bok = ibounds(&st.vals[gprLoc(in.B.Reg)])
	}

	var lo, hi int64
	ok := false
	switch in.Op {
	case isa.ADDR, isa.ADDI:
		if aok && bok && inSafe(alo, ahi) && inSafe(blo, bhi) {
			lo, hi, ok = alo+blo, ahi+bhi, true
		}
	case isa.SUBR, isa.SUBI:
		if aok && bok && inSafe(alo, ahi) && inSafe(blo, bhi) {
			lo, hi, ok = alo-bhi, ahi-blo, true
		}
	case isa.IMULR, isa.IMULI:
		if aok && bok && mulSafe(alo, ahi, blo, bhi) {
			lo, hi = minMax4(alo*blo, alo*bhi, ahi*blo, ahi*bhi)
			ok = true
		}
	case isa.IDIVR:
		if aok && bok && blo == bhi && blo != 0 && !(blo == -1 && alo == math.MinInt64) {
			q1, q2 := alo/blo, ahi/blo
			if q1 > q2 {
				q1, q2 = q2, q1
			}
			lo, hi, ok = q1, q2, true
		}
	case isa.ANDR, isa.ANDI:
		if aok && bok && alo == ahi && blo == bhi {
			lo, hi, ok = alo&blo, alo&blo, true
		} else if blo == bhi && blo >= 0 {
			// Masking with a non-negative constant bounds the result.
			lo, hi, ok = 0, blo, true
		}
	case isa.ORR, isa.ORI:
		if aok && bok && alo == ahi && blo == bhi {
			lo, hi, ok = alo|blo, alo|blo, true
		}
	case isa.XORR:
		if in.B.Reg == d {
			lo, hi, ok = 0, 0, true
		} else if aok && bok && alo == ahi && blo == bhi {
			lo, hi, ok = alo^blo, alo^blo, true
		}
	case isa.XORI:
		if aok && bok && alo == ahi && blo == bhi {
			lo, hi, ok = alo^blo, alo^blo, true
		}
	case isa.SHLI:
		s := uint(in.B.Imm) & 63
		if aok && alo >= -(iSafe>>s) && ahi <= iSafe>>s {
			lo, hi, ok = alo<<s, ahi<<s, true
		}
	case isa.SHRI:
		s := uint(in.B.Imm) & 63
		if aok && alo >= 0 {
			lo, hi, ok = alo>>s, ahi>>s, true
		}
	}
	az.setGPR(st, cmp, d, mkInt(lo, hi, ok, i))
}

func inSafe(lo, hi int64) bool { return lo >= -iSafe && hi <= iSafe }

func mulSafe(alo, ahi, blo, bhi int64) bool {
	am := math.Max(math.Abs(float64(alo)), math.Abs(float64(ahi)))
	bm := math.Max(math.Abs(float64(blo)), math.Abs(float64(bhi)))
	return am*bm < float64(iSafe)
}

func minMax4(a, b, c, d int64) (int64, int64) {
	lo, hi := a, a
	for _, x := range [3]int64{b, c, d} {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

func (az *analyzer) syscall(st *state, cmp *cmpFact, in *isa.Instr, i int) {
	switch in.A.Imm {
	case isa.SysOutF64, isa.SysOutF32, isa.SysOutI64, isa.SysMPIBarrier, isa.SysMPISendF64:
		// Read-only host services: no machine-visible state change.
	case isa.SysMPIRank:
		az.setGPR(st, cmp, isa.RAX, fromIRange(0, 1<<20, int32(i)))
	case isa.SysMPISize:
		az.setGPR(st, cmp, isa.RAX, fromIRange(1, 1<<20, int32(i)))
	case isa.SysMPIRecvF64, isa.SysMPIAllreduce, isa.SysMPIBcastF64:
		az.sawMPIWrite = true
		az.havocMem(st)
	default:
		az.sawMPIWrite = true
		az.havocMem(st)
		for r := 0; r < nGPR; r++ {
			if uint8(r) != isa.RSP {
				az.setGPR(st, cmp, uint8(r), top())
			}
		}
	}
}

func (az *analyzer) movsd(st *state, cmp *cmpFact, in *isa.Instr, i int) {
	switch {
	case in.A.Kind == isa.KindXMM && in.B.Kind == isa.KindXMM:
		st.vals[xmmLoc(in.A.Reg, 0)] = st.vals[xmmLoc(in.B.Reg, 0)]
	case in.A.Kind == isa.KindXMM && in.B.Kind == isa.KindMem:
		v, _ := az.loadVal(st, in.B.Mem, i)
		st.vals[xmmLoc(in.A.Reg, 0)] = v
		st.vals[xmmLoc(in.A.Reg, 1)] = fromBits(0, int32(i))
	case in.A.Kind == isa.KindMem && in.B.Kind == isa.KindXMM:
		az.storeVal(st, in.A.Mem, st.vals[xmmLoc(in.B.Reg, 0)], i)
	}
}

func (az *analyzer) movss(st *state, in *isa.Instr, i int) {
	switch {
	case in.A.Kind == isa.KindXMM && in.B.Kind == isa.KindMem:
		// Load form zeroes bits 32..127: lane 0 holds a 32-bit payload.
		var v aval
		v.topF()
		v.lo, v.hi = 0, math.Float64frombits(0xFFFFFFFF)
		v.mayNaN = false
		v.ilo, v.ihi = 0, 0xFFFFFFFF
		v.src = int32(i)
		st.vals[xmmLoc(in.A.Reg, 0)] = v
		st.vals[xmmLoc(in.A.Reg, 1)] = fromBits(0, int32(i))
	case in.A.Kind == isa.KindMem:
		// 4-byte store clobbers half the cell: weak top.
		az.storeVal(st, in.A.Mem, top(), i)
	default:
		t := top()
		t.src = int32(i)
		st.vals[xmmLoc(in.A.Reg, 0)] = t
	}
}

func (az *analyzer) movapd(st *state, in *isa.Instr, i int) {
	switch {
	case in.A.Kind == isa.KindXMM && in.B.Kind == isa.KindXMM:
		st.vals[xmmLoc(in.A.Reg, 0)] = st.vals[xmmLoc(in.B.Reg, 0)]
		st.vals[xmmLoc(in.A.Reg, 1)] = st.vals[xmmLoc(in.B.Reg, 1)]
	case in.A.Kind == isa.KindXMM && in.B.Kind == isa.KindMem:
		l0, l1 := az.loadWide(st, in.B.Mem, i)
		st.vals[xmmLoc(in.A.Reg, 0)] = l0
		st.vals[xmmLoc(in.A.Reg, 1)] = l1
	case in.A.Kind == isa.KindMem && in.B.Kind == isa.KindXMM:
		az.storeWide(st, in.A.Mem, st.vals[xmmLoc(in.B.Reg, 0)], st.vals[xmmLoc(in.B.Reg, 1)], i)
	}
}

func (az *analyzer) loadWide(st *state, m isa.MemRef, i int) (aval, aval) {
	cells, strong := az.cellsOf(m, true)
	if strong && len(cells) == 2 {
		mk := func(c int) aval {
			v := st.vals[nRegLoc+c]
			v.sym, v.symNeg = 0, false
			v.acc = -1
			if az.cells[c].Kind == dataflow.CellSlot {
				v.sym = az.cellGen[c]
			}
			v.src = int32(i)
			return v
		}
		return mk(cells[0]), mk(cells[1])
	}
	if len(cells) == 0 {
		return top(), top()
	}
	v := st.vals[nRegLoc+cells[0]]
	for _, c := range cells[1:] {
		w := st.vals[nRegLoc+c]
		v.join(&w)
	}
	v.sym, v.symNeg = 0, false
	v.acc = -1
	v.src = int32(i)
	return v, v
}

func (az *analyzer) storeWide(st *state, m isa.MemRef, l0, l1 aval, i int) {
	cells, strong := az.cellsOf(m, true)
	joined := l0
	joined.join(&l1)
	az.recordStore(i, cells, joined)
	for _, c := range cells {
		if c == az.summary {
			az.sawWild = true
			az.havocMem(st)
			return
		}
	}
	if strong && len(cells) == 2 {
		for k, c := range cells {
			nv := l0
			if k == 1 {
				nv = l1
			}
			nv.sym, nv.symNeg = 0, false
			nv.acc = -1
			if cl, ok := az.clamps[c]; ok {
				clampF(&nv, cl)
			}
			st.vals[nRegLoc+c] = nv
			az.cellGen[c] = az.gen
			az.gen++
			az.killAccCell(st, c)
			az.killAlias(st, c)
		}
		return
	}
	for _, c := range cells {
		nv := joined
		nv.sym, nv.symNeg = 0, false
		nv.acc = -1
		if cl, ok := az.clamps[c]; ok {
			clampF(&nv, cl)
		}
		old := st.vals[nRegLoc+c]
		old.join(&nv)
		st.vals[nRegLoc+c] = old
		az.cellGen[c] = az.gen
		az.gen++
		az.killAccCell(st, c)
		az.killAlias(st, c)
	}
}

// fpSrc reads the scalar-double source operand (XMM lane 0 or memory).
func (az *analyzer) fpSrc(st *state, in *isa.Instr, i int) aval {
	if in.B.Kind == isa.KindXMM {
		return st.vals[xmmLoc(in.B.Reg, 0)]
	}
	v, _ := az.loadVal(st, in.B.Mem, i)
	return v
}

// fpSrcWide reads a 128-bit source's two lanes.
func (az *analyzer) fpSrcWide(st *state, in *isa.Instr, i int) (aval, aval) {
	if in.B.Kind == isa.KindXMM {
		return st.vals[xmmLoc(in.B.Reg, 0)], st.vals[xmmLoc(in.B.Reg, 1)]
	}
	return az.loadWide(st, in.B.Mem, i)
}
