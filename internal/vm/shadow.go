package vm

import (
	"encoding/binary"
	"math"
	"slices"

	"fpmix/internal/isa"
)

// Shadow-value analysis: when enabled, the machine carries a
// single-precision shadow alongside every 64-bit floating-point value —
// one float32 per XMM lane plus paged shadow memory (shadowMem) — and
// pushes it through the same operations the program executes. The gap
// between a shadow and its double-precision reference at each
// instruction is the accumulated error a whole-program single-precision
// run would have at that point, which is exactly the per-instruction
// sensitivity signal CRAFT's shadow-value mode derives. The pass is
// observational: it never changes architectural state, and a machine
// with the shadow disabled executes bit-identically with no per-step
// cost beyond one nil check.

// ShadowRecord is the per-instruction result of a shadow run.
type ShadowRecord struct {
	Addr uint64
	Op   isa.Op

	// Execs is how many times the instruction executed.
	Execs uint64

	// Samples is how many executions contributed an error measurement.
	Samples uint64

	// MaxRelErr and MeanRelErr summarize the relative error between the
	// single-precision shadow result and the double-precision reference,
	// with |reference| floored at 1 (the verifiers' scale) and capped at
	// 1.0 — a comparison or truncation divergence records as 1.0.
	MaxRelErr  float64
	MeanRelErr float64

	// MaxCancelBits is the worst catastrophic cancellation observed on an
	// add/subtract: bits of leading-digit loss between the larger operand
	// and the result.
	MaxCancelBits uint8

	// Divergences counts executions where the shadow took a different
	// discrete outcome than the reference: a comparison setting different
	// flags or a float->int truncation producing a different integer.
	Divergences uint64

	// LocalMaxErr and LocalDivergences are the same measurements taken
	// with the instruction's true double operands rounded to single just
	// for this one step, instead of the carried shadows: the error the
	// instruction introduces intrinsically, independent of upstream
	// drift. The carried-shadow numbers above estimate a whole-program
	// single run; the local numbers estimate lowering this instruction
	// alone, which is what the search's prediction gate needs (a global
	// divergence may be harmless downstream pollution; a local divergence
	// means the operation itself does not fit in 24 bits of mantissa).
	LocalMaxErr      float64
	LocalDivergences uint64
}

// shadowState is the machine's shadow lane file plus the per-instruction
// error accumulators, indexed like counts (by instruction index).
type shadowState struct {
	xmm [isa.NumXMM][2]float32
	mem shadowMem

	maxRel  []float64
	sumRel  []float64
	samples []uint64
	cancel  []uint8
	diverge []uint64

	localMax     []float64
	localDiverge []uint64
}

// EnableShadow turns on shadow-value collection for subsequent execution.
// Enabling mid-run is allowed; shadows for values computed before the
// call are seeded from their double values on first use.
func (m *Machine) EnableShadow() {
	m.shadow = &shadowState{}
	m.shadow.mem.init(uint64(len(m.Mem)))
	m.shadow.size(len(m.instrs))
}

// ShadowEnabled reports whether shadow collection is on.
func (m *Machine) ShadowEnabled() bool { return m.shadow != nil }

func (s *shadowState) size(n int) {
	s.maxRel = make([]float64, n)
	s.sumRel = make([]float64, n)
	s.samples = make([]uint64, n)
	s.cancel = make([]uint8, n)
	s.diverge = make([]uint64, n)
	s.localMax = make([]float64, n)
	s.localDiverge = make([]uint64, n)
}

func (s *shadowState) reset(n int, memSize uint64) {
	s.xmm = [isa.NumXMM][2]float32{}
	s.mem.init(memSize)
	if len(s.maxRel) != n {
		s.size(n)
		return
	}
	clear(s.maxRel)
	clear(s.sumRel)
	clear(s.samples)
	clear(s.cancel)
	clear(s.diverge)
	clear(s.localMax)
	clear(s.localDiverge)
}

// ShadowRecords returns the per-instruction shadow measurements of the
// run so far, in program instruction order, omitting instructions the
// shadow never sampled.
func (m *Machine) ShadowRecords() []ShadowRecord {
	s := m.shadow
	if s == nil {
		return nil
	}
	var recs []ShadowRecord
	for i := range m.instrs {
		if s.samples[i] == 0 && s.diverge[i] == 0 {
			continue
		}
		mean := 0.0
		if s.samples[i] > 0 {
			mean = s.sumRel[i] / float64(s.samples[i])
		}
		recs = append(recs, ShadowRecord{
			Addr:             m.instrs[i].Addr,
			Op:               m.instrs[i].Op,
			Execs:            m.counts[i],
			Samples:          s.samples[i],
			MaxRelErr:        s.maxRel[i],
			MeanRelErr:       mean,
			MaxCancelBits:    s.cancel[i],
			Divergences:      s.diverge[i],
			LocalMaxErr:      s.localMax[i],
			LocalDivergences: s.localDiverge[i],
		})
	}
	return recs
}

// ShadowInvalidate drops shadow memory entries overlapping [addr,
// addr+n): the region was written by something the shadow does not model
// (an MPI receive, a host poke), so shadows there reseed from the stored
// doubles on next use. No-op when the shadow is off.
func (m *Machine) ShadowInvalidate(addr, n uint64) {
	if m.shadow == nil {
		return
	}
	for a := addr &^ 7; a < addr+n; a += 4 {
		m.shadow.mem.del(a)
	}
}

// slot returns the shadow of the 8-byte memory slot at addr, seeding it
// from the stored double bits when untracked.
func (s *shadowState) slot(addr uint64, bits uint64) float32 {
	if v, ok := s.mem.get(addr); ok {
		return v
	}
	return float32(math.Float64frombits(bits))
}

// record accumulates one reference-vs-shadow error sample at the current
// instruction.
func (m *Machine) record(r float64, sr float32) {
	s, i := m.shadow, m.pcIdx
	sf := float64(sr)
	var rel float64
	switch {
	case math.IsNaN(r):
		if !math.IsNaN(sf) {
			rel = 1
		}
	case math.IsNaN(sf), math.IsInf(sf, 0) != math.IsInf(r, 0):
		rel = 1
	case math.IsInf(r, 0):
		// Same infinity: no error (handled above when signs differ via NaN
		// of the subtraction below). Distinguish sign explicitly.
		if math.Signbit(r) != math.Signbit(sf) {
			rel = 1
		}
	default:
		rel = math.Abs(sf-r) / math.Max(math.Abs(r), 1)
		if rel > 1 {
			rel = 1
		}
	}
	if rel > s.maxRel[i] {
		s.maxRel[i] = rel
	}
	s.sumRel[i] += rel
	s.samples[i]++
}

// recordDivergence notes a discrete-outcome mismatch (flags, truncation).
func (m *Machine) recordDivergence() {
	s, i := m.shadow, m.pcIdx
	s.diverge[i]++
	s.maxRel[i] = 1
	s.sumRel[i] += 1
	s.samples[i]++
}

// recordLocal accumulates one local error sample: the reference result
// against the result of performing just this operation in single on the
// true (double) operands.
func (m *Machine) recordLocal(r float64, lr float32) {
	s, i := m.shadow, m.pcIdx
	lf := float64(lr)
	var rel float64
	switch {
	case math.IsNaN(r):
		if !math.IsNaN(lf) {
			rel = 1
		}
	case math.IsNaN(lf), math.IsInf(lf, 0) != math.IsInf(r, 0):
		rel = 1
	case math.IsInf(r, 0):
		if math.Signbit(r) != math.Signbit(lf) {
			rel = 1
		}
	default:
		rel = math.Abs(lf-r) / math.Max(math.Abs(r), 1)
		if rel > 1 {
			rel = 1
		}
	}
	if rel > s.localMax[i] {
		s.localMax[i] = rel
	}
}

// recordLocalDivergence notes a discrete-outcome mismatch that occurs
// even with true operands rounded to single just for this step.
func (m *Machine) recordLocalDivergence() {
	s, i := m.shadow, m.pcIdx
	s.localDiverge[i]++
	s.localMax[i] = 1
}

// recordCancel accumulates catastrophic-cancellation bits for a+b=r (or
// a-b=r): the exponent drop from the larger operand to the result.
func (m *Machine) recordCancel(a, b, r float64) {
	if a == 0 || b == 0 || math.IsNaN(r) || math.IsInf(r, 0) ||
		math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
		return
	}
	emax := math.Ilogb(math.Abs(a))
	if eb := math.Ilogb(math.Abs(b)); eb > emax {
		emax = eb
	}
	bits := 53
	if r != 0 {
		bits = emax - math.Ilogb(math.Abs(r))
	}
	if bits <= 0 {
		return
	}
	if bits > 53 {
		bits = 53
	}
	if s, i := m.shadow, m.pcIdx; uint8(bits) > s.cancel[i] {
		s.cancel[i] = uint8(bits)
	}
}

// shadowSrcF64 mirrors srcF64 without faulting: the reference double
// operand and its shadow.
func (m *Machine) shadowSrcF64(in *isa.Instr) (float64, float32, bool) {
	switch in.B.Kind {
	case isa.KindXMM:
		return math.Float64frombits(m.XMM[in.B.Reg][0]), m.shadow.xmm[in.B.Reg][0], true
	case isa.KindMem:
		addr := m.ea(in.B.Mem)
		if addr+8 > uint64(len(m.Mem)) || addr+8 < addr {
			return 0, 0, false
		}
		bits := binary.LittleEndian.Uint64(m.Mem[addr:])
		return math.Float64frombits(bits), m.shadow.slot(addr, bits), true
	}
	return 0, 0, false
}

// shadowSrc128 mirrors src128 without faulting.
func (m *Machine) shadowSrc128(in *isa.Instr) (ref [2]float64, sh [2]float32, ok bool) {
	switch in.B.Kind {
	case isa.KindXMM:
		x := m.XMM[in.B.Reg]
		return [2]float64{math.Float64frombits(x[0]), math.Float64frombits(x[1])},
			m.shadow.xmm[in.B.Reg], true
	case isa.KindMem:
		addr := m.ea(in.B.Mem)
		if addr+16 > uint64(len(m.Mem)) || addr+16 < addr {
			return ref, sh, false
		}
		lo := binary.LittleEndian.Uint64(m.Mem[addr:])
		hi := binary.LittleEndian.Uint64(m.Mem[addr+8:])
		ref = [2]float64{math.Float64frombits(lo), math.Float64frombits(hi)}
		sh = [2]float32{m.shadow.slot(addr, lo), m.shadow.slot(addr+8, hi)}
		return ref, sh, true
	}
	return ref, sh, false
}

// shadowStep observes in before it executes, updating shadow lanes and
// error accumulators. It runs on pre-instruction architectural state,
// never mutates it, and swallows conditions the real execution will
// fault on.
func (m *Machine) shadowStep(in *isa.Instr) {
	s := m.shadow
	switch in.Op {
	// Non-FP instructions that write memory make shadowed slots stale.
	case isa.STORE:
		s.kill(m.ea(in.A.Mem))
	case isa.PUSH, isa.CALL:
		s.kill(m.GPR[isa.RSP] - 8)

	case isa.PUSHX:
		sp := m.GPR[isa.RSP] - 16
		s.kill(sp)
		s.kill(sp + 8)
		s.mem.set(sp, s.xmm[in.A.Reg][0])
		s.mem.set(sp+8, s.xmm[in.A.Reg][1])
	case isa.POPX:
		sp := m.GPR[isa.RSP]
		if sp+16 <= uint64(len(m.Mem)) {
			lo := binary.LittleEndian.Uint64(m.Mem[sp:])
			hi := binary.LittleEndian.Uint64(m.Mem[sp+8:])
			s.xmm[in.A.Reg][0] = s.slot(sp, lo)
			s.xmm[in.A.Reg][1] = s.slot(sp+8, hi)
		}

	case isa.MOVSD:
		switch {
		case in.A.Kind == isa.KindXMM && in.B.Kind == isa.KindXMM:
			s.xmm[in.A.Reg][0] = s.xmm[in.B.Reg][0]
		case in.A.Kind == isa.KindXMM && in.B.Kind == isa.KindMem:
			if _, sh, ok := m.shadowSrcF64(in); ok {
				s.xmm[in.A.Reg][0], s.xmm[in.A.Reg][1] = sh, 0
			}
		case in.A.Kind == isa.KindMem && in.B.Kind == isa.KindXMM:
			addr := m.ea(in.A.Mem)
			if addr+8 <= uint64(len(m.Mem)) {
				s.kill(addr)
				s.mem.set(addr, s.xmm[in.B.Reg][0])
			}
		}
	case isa.MOVSS:
		switch {
		case in.A.Kind == isa.KindXMM && in.B.Kind == isa.KindXMM:
			s.xmm[in.A.Reg][0] = math.Float32frombits(uint32(m.XMM[in.B.Reg][0]))
		case in.A.Kind == isa.KindXMM && in.B.Kind == isa.KindMem:
			addr := m.ea(in.B.Mem)
			if addr+4 <= uint64(len(m.Mem)) {
				v := math.Float32frombits(binary.LittleEndian.Uint32(m.Mem[addr:]))
				s.xmm[in.A.Reg][0], s.xmm[in.A.Reg][1] = v, 0
			}
		case in.A.Kind == isa.KindMem && in.B.Kind == isa.KindXMM:
			addr := m.ea(in.A.Mem)
			s.kill(addr)
			s.mem.set(addr, math.Float32frombits(uint32(m.XMM[in.B.Reg][0])))
		}
	case isa.MOVAPD:
		switch {
		case in.A.Kind == isa.KindXMM && in.B.Kind == isa.KindXMM:
			s.xmm[in.A.Reg] = s.xmm[in.B.Reg]
		case in.A.Kind == isa.KindXMM && in.B.Kind == isa.KindMem:
			if _, sh, ok := m.shadowSrc128(in); ok {
				s.xmm[in.A.Reg] = sh
			}
		case in.A.Kind == isa.KindMem && in.B.Kind == isa.KindXMM:
			addr := m.ea(in.A.Mem)
			if addr+16 <= uint64(len(m.Mem)) {
				s.kill(addr)
				s.kill(addr + 8)
				s.mem.set(addr, s.xmm[in.B.Reg][0])
				s.mem.set(addr+8, s.xmm[in.B.Reg][1])
			}
		}
	case isa.MOVQ:
		// GPR destination leaves the shadow alone; XMM destination reseeds
		// lane 0 from the incoming bits (the GPR path is untracked).
		if in.A.Kind == isa.KindXMM {
			s.xmm[in.A.Reg][0] = float32(math.Float64frombits(m.GPR[in.B.Reg]))
		}
	case isa.MOVHQ:
		if in.A.Kind == isa.KindXMM {
			s.xmm[in.A.Reg][1] = float32(math.Float64frombits(m.GPR[in.B.Reg]))
		}

	case isa.ANDPD, isa.ORPD, isa.XORPD:
		m.shadowBitop(in)

	case isa.ADDSD, isa.SUBSD, isa.MULSD, isa.DIVSD, isa.MINSD, isa.MAXSD:
		b, sb, ok := m.shadowSrcF64(in)
		if !ok || in.A.Kind != isa.KindXMM {
			return
		}
		a := math.Float64frombits(m.XMM[in.A.Reg][0])
		sa := s.xmm[in.A.Reg][0]
		r := arith64(in.Op, a, b)
		sr := arith32(ssFromSd(in.Op), sa, sb)
		if in.Op == isa.ADDSD || in.Op == isa.SUBSD {
			m.recordCancel(a, b, r)
		}
		m.record(r, sr)
		m.recordLocal(r, arith32(ssFromSd(in.Op), float32(a), float32(b)))
		s.xmm[in.A.Reg][0] = sr
	case isa.SQRTSD:
		b, sb, ok := m.shadowSrcF64(in)
		if !ok {
			return
		}
		r, sr := math.Sqrt(b), sqrt32(sb)
		m.record(r, sr)
		m.recordLocal(r, sqrt32(float32(b)))
		s.xmm[in.A.Reg][0] = sr
	case isa.SINSD, isa.COSSD, isa.EXPSD, isa.LOGSD:
		b, sb, ok := m.shadowSrcF64(in)
		if !ok {
			return
		}
		r, sr := transc64(in.Op, b), transc32(ssFromSd(in.Op), sb)
		m.record(r, sr)
		m.recordLocal(r, transc32(ssFromSd(in.Op), float32(b)))
		s.xmm[in.A.Reg][0] = sr
	case isa.UCOMISD:
		b, sb, ok := m.shadowSrcF64(in)
		if !ok || in.A.Kind != isa.KindXMM {
			return
		}
		a := math.Float64frombits(m.XMM[in.A.Reg][0])
		if ucomiOutcome(a, b) != ucomiOutcome(float64(s.xmm[in.A.Reg][0]), float64(sb)) {
			m.recordDivergence()
		} else {
			s.samples[m.pcIdx]++
		}
		if ucomiOutcome(a, b) != ucomiOutcome(float64(float32(a)), float64(float32(b))) {
			m.recordLocalDivergence()
		}

	case isa.CVTSD2SS:
		b, sb, ok := m.shadowSrcF64(in)
		if !ok {
			return
		}
		// The reference itself rounds to single here; the gap to the shadow
		// is the drift the downcast would expose.
		m.record(float64(float32(b)), sb)
		s.xmm[in.A.Reg][0] = sb
	case isa.CVTSS2SD:
		// Widening from the single domain: shadow equals the value exactly.
		switch in.B.Kind {
		case isa.KindXMM:
			s.xmm[in.A.Reg][0] = math.Float32frombits(uint32(m.XMM[in.B.Reg][0]))
		case isa.KindMem:
			addr := m.ea(in.B.Mem)
			if addr+4 <= uint64(len(m.Mem)) {
				s.xmm[in.A.Reg][0] = math.Float32frombits(binary.LittleEndian.Uint32(m.Mem[addr:]))
			}
		}
	case isa.CVTSI2SD:
		r := float64(int64(m.GPR[in.B.Reg]))
		sr := float32(r)
		m.record(r, sr)
		// The integer-to-single rounding is intrinsic to the instruction.
		m.recordLocal(r, sr)
		s.xmm[in.A.Reg][0] = sr
	case isa.CVTTSD2SI:
		b := math.Float64frombits(m.XMM[in.B.Reg][0])
		sb := float64(s.xmm[in.B.Reg][0])
		if truncDiverges(b, sb) {
			m.recordDivergence()
		} else {
			s.samples[m.pcIdx]++
		}
		if truncDiverges(b, float64(float32(b))) {
			m.recordLocalDivergence()
		}
	case isa.CVTSI2SS:
		s.xmm[in.A.Reg][0] = float32(int64(m.GPR[in.B.Reg]))

	// Single-precision domain: the shadow is the computation itself, so
	// mirror the result with zero recorded error.
	case isa.ADDSS, isa.SUBSS, isa.MULSS, isa.DIVSS, isa.MINSS, isa.MAXSS:
		if b, ok := m.shadowF32Operand(in); ok && in.A.Kind == isa.KindXMM {
			a := math.Float32frombits(uint32(m.XMM[in.A.Reg][0]))
			s.xmm[in.A.Reg][0] = arith32(in.Op, a, b)
		}
	case isa.SQRTSS:
		if b, ok := m.shadowF32Operand(in); ok {
			s.xmm[in.A.Reg][0] = sqrt32(b)
		}
	case isa.SINSS, isa.COSSS, isa.EXPSS, isa.LOGSS:
		if b, ok := m.shadowF32Operand(in); ok {
			s.xmm[in.A.Reg][0] = transc32(in.Op, b)
		}

	case isa.ADDPD, isa.SUBPD, isa.MULPD, isa.DIVPD:
		ref, sh, ok := m.shadowSrc128(in)
		if !ok || in.A.Kind != isa.KindXMM {
			return
		}
		base := packedBase(in.Op)
		x := m.XMM[in.A.Reg]
		for lane := 0; lane < 2; lane++ {
			a := math.Float64frombits(x[lane])
			r := arith64(base, a, ref[lane])
			sr := arith32(ssFromSd(base), s.xmm[in.A.Reg][lane], sh[lane])
			if base == isa.ADDSD || base == isa.SUBSD {
				m.recordCancel(a, ref[lane], r)
			}
			m.record(r, sr)
			m.recordLocal(r, arith32(ssFromSd(base), float32(a), float32(ref[lane])))
			s.xmm[in.A.Reg][lane] = sr
		}
	case isa.SQRTPD:
		ref, sh, ok := m.shadowSrc128(in)
		if !ok {
			return
		}
		for lane := 0; lane < 2; lane++ {
			m.record(math.Sqrt(ref[lane]), sqrt32(sh[lane]))
			m.recordLocal(math.Sqrt(ref[lane]), sqrt32(float32(ref[lane])))
			s.xmm[in.A.Reg][lane] = sqrt32(sh[lane])
		}

	case isa.ADDPS, isa.SUBPS, isa.MULPS, isa.DIVPS, isa.SQRTPS:
		// Packed-single lanes hold two float32s per 64-bit lane, which the
		// one-shadow-per-lane file cannot represent; these only occur in
		// already-converted code, so drop tracking for the destination.
		if in.A.Kind == isa.KindXMM {
			s.xmm[in.A.Reg] = [2]float32{}
		}
	}
}

// shadowObserves reports whether shadowStep acts on op. It lists every
// opcode of shadowStep's switch; the compiled shadow stream hooks exactly
// these instructions.
func shadowObserves(op isa.Op) bool {
	switch op {
	case isa.STORE, isa.PUSH, isa.CALL, isa.PUSHX, isa.POPX,
		isa.MOVSD, isa.MOVSS, isa.MOVAPD, isa.MOVQ, isa.MOVHQ,
		isa.ANDPD, isa.ORPD, isa.XORPD,
		isa.ADDSD, isa.SUBSD, isa.MULSD, isa.DIVSD, isa.MINSD, isa.MAXSD,
		isa.SQRTSD, isa.SINSD, isa.COSSD, isa.EXPSD, isa.LOGSD, isa.UCOMISD,
		isa.CVTSD2SS, isa.CVTSS2SD, isa.CVTSI2SD, isa.CVTTSD2SI, isa.CVTSI2SS,
		isa.ADDSS, isa.SUBSS, isa.MULSS, isa.DIVSS, isa.MINSS, isa.MAXSS,
		isa.SQRTSS, isa.SINSS, isa.COSSS, isa.EXPSS, isa.LOGSS,
		isa.ADDPD, isa.SUBPD, isa.MULPD, isa.DIVPD, isa.SQRTPD,
		isa.ADDPS, isa.SUBPS, isa.MULPS, isa.DIVPS, isa.SQRTPS:
		return true
	}
	return false
}

// shadowStream returns lp's block stream with the shadow hook compiled
// in, building it on first use. Every micro-op of an instruction
// shadowStep observes first materializes pcIdx (the hook's records are
// indexed by it) and runs the hook on the pre-instruction state, exactly
// as Step does; superinstructions spanning such an instruction are not
// taken. Every index-access superinstruction ends in an observed MOVSD,
// so the stream matches without that family and keeps the shorter
// arithmetic patterns its prefixes match, and it matches no flag-test
// guard (the hook observes the test's MOVQ and the arm's conversions).
// The CALL terminator's hook runs in runCompiled. Every leader of
// lp.compiled is passed on, so the blocks are lp.compiled's with each
// guarded diamond split back at its branch, and stops and budget
// hand-offs behave identically.
func (lp *Program) shadowStream() *compiled {
	lp.shadowOnce.Do(func() {
		ops, fused := compileFrag(lp.instrs, true)
		for i, op := range ops {
			if in := &lp.instrs[i]; op != nil && shadowObserves(in.Op) {
				ops[i] = shadowOp(int32(i), in, op)
			}
		}
		fused = slices.DeleteFunc(fused, func(f fusedOp) bool {
			return slices.ContainsFunc(lp.instrs[f.at:f.at+f.n], func(in isa.Instr) bool { return shadowObserves(in.Op) })
		})
		var leaders []int32
		for i, l := range lp.compiled.leader {
			if l {
				leaders = append(leaders, int32(i))
			}
		}
		lp.shadowed = compileProgramWith(nil, lp, ops, fused, leaders)
	})
	return lp.shadowed
}

// shadowOp wraps instruction i's micro-op with the shadow hook.
func shadowOp(i int32, in *isa.Instr, op microOp) microOp {
	return func(m *Machine) error {
		m.pcIdx = i
		m.shadowStep(in)
		return op(m)
	}
}

// shadowBitop pushes sign-mask operations through the shadow when they
// are recognizably abs/negate/identity, and reseeds otherwise.
func (m *Machine) shadowBitop(in *isa.Instr) {
	s := m.shadow
	if in.A.Kind != isa.KindXMM {
		return
	}
	ref, _, ok := m.shadowSrc128(in)
	if !ok {
		return
	}
	for lane := 0; lane < 2; lane++ {
		mask := math.Float64bits(ref[lane])
		sh := &s.xmm[in.A.Reg][lane]
		switch in.Op {
		case isa.ANDPD:
			switch mask {
			case ^uint64(0):
			case 0x7FFFFFFFFFFFFFFF:
				*sh = float32(math.Abs(float64(*sh)))
			default:
				*sh = m.reseedLane(in.A.Reg, lane, mask, in.Op)
			}
		case isa.ORPD:
			if mask != 0 {
				*sh = m.reseedLane(in.A.Reg, lane, mask, in.Op)
			}
		default: // XORPD
			switch mask {
			case 0:
			case 0x8000000000000000:
				*sh = -*sh
			default:
				*sh = m.reseedLane(in.A.Reg, lane, mask, in.Op)
			}
		}
	}
}

// reseedLane computes the bit operation's actual result for one lane and
// reseeds the shadow from it.
func (m *Machine) reseedLane(reg uint8, lane int, mask uint64, op isa.Op) float32 {
	v := m.XMM[reg][lane]
	switch op {
	case isa.ANDPD:
		v &= mask
	case isa.ORPD:
		v |= mask
	default:
		v ^= mask
	}
	return float32(math.Float64frombits(v))
}

// shadowF32Operand fetches the 32-bit source operand without faulting.
func (m *Machine) shadowF32Operand(in *isa.Instr) (float32, bool) {
	switch in.B.Kind {
	case isa.KindXMM:
		return math.Float32frombits(uint32(m.XMM[in.B.Reg][0])), true
	case isa.KindMem:
		addr := m.ea(in.B.Mem)
		if addr+4 > uint64(len(m.Mem)) {
			return 0, false
		}
		return math.Float32frombits(binary.LittleEndian.Uint32(m.Mem[addr:])), true
	}
	return 0, false
}

// kill drops the shadow slot at addr (and a straddling 4-byte neighbor).
func (s *shadowState) kill(addr uint64) {
	s.mem.del(addr)
	s.mem.del(addr + 4)
	s.mem.del(addr - 4)
}

// shadowMem maps shadowed memory addresses to their float32 shadows.
// Shadows live at 4-byte-aligned addresses almost always, so those inside
// the machine's memory are kept in dense pages (one slot per aligned
// word, allocated on first write) instead of a hash map; unaligned or
// out-of-range addresses fall back to a map. The two hold disjoint
// address sets, so together they behave exactly like one map.
type shadowMem struct {
	pages []*shadowPage // indexed by addr >> pageShift
	odd   map[uint64]float32
}

const shadowSlots = pageSize / 4

// shadowPage shadows one memory page: has marks the live slots.
type shadowPage struct {
	has  [shadowSlots / 64]uint64
	vals [shadowSlots]float32
}

// init empties the shadow memory and sizes its page table for memSize
// bytes of machine memory.
func (sm *shadowMem) init(memSize uint64) {
	if n := numPages(memSize); len(sm.pages) != n {
		sm.pages = make([]*shadowPage, n)
	} else {
		clear(sm.pages)
	}
	clear(sm.odd)
}

// paged resolves addr to its page number and slot when it is paged.
func (sm *shadowMem) paged(addr uint64) (pg uint64, slot uint32, ok bool) {
	pg = addr >> pageShift
	if addr&3 != 0 || pg >= uint64(len(sm.pages)) {
		return 0, 0, false
	}
	return pg, uint32(addr&(pageSize-1)) >> 2, true
}

func (sm *shadowMem) get(addr uint64) (float32, bool) {
	pg, slot, ok := sm.paged(addr)
	if !ok {
		v, ok := sm.odd[addr]
		return v, ok
	}
	p := sm.pages[pg]
	if p == nil || p.has[slot>>6]&(1<<(slot&63)) == 0 {
		return 0, false
	}
	return p.vals[slot], true
}

func (sm *shadowMem) set(addr uint64, v float32) {
	pg, slot, ok := sm.paged(addr)
	if !ok {
		if sm.odd == nil {
			sm.odd = make(map[uint64]float32)
		}
		sm.odd[addr] = v
		return
	}
	p := sm.pages[pg]
	if p == nil {
		p = new(shadowPage)
		sm.pages[pg] = p
	}
	p.has[slot>>6] |= 1 << (slot & 63)
	p.vals[slot] = v
}

func (sm *shadowMem) del(addr uint64) {
	pg, slot, ok := sm.paged(addr)
	if !ok {
		delete(sm.odd, addr)
		return
	}
	if p := sm.pages[pg]; p != nil {
		p.has[slot>>6] &^= 1 << (slot & 63)
	}
}

// copyFrom makes sm an independent copy of o, reusing sm's pages.
func (sm *shadowMem) copyFrom(o *shadowMem) {
	if len(sm.pages) != len(o.pages) {
		sm.pages = make([]*shadowPage, len(o.pages))
	}
	for i, p := range o.pages {
		switch {
		case p == nil:
			sm.pages[i] = nil
		case sm.pages[i] == nil:
			cp := *p
			sm.pages[i] = &cp
		default:
			*sm.pages[i] = *p
		}
	}
	clear(sm.odd)
	if sm.odd == nil && len(o.odd) > 0 {
		sm.odd = make(map[uint64]float32, len(o.odd))
	}
	for k, v := range o.odd {
		sm.odd[k] = v
	}
}

// ucomiOutcome encodes the discrete flag outcome of an unordered compare.
func ucomiOutcome(a, b float64) uint8 {
	if math.IsNaN(a) || math.IsNaN(b) {
		return 3
	}
	switch {
	case a == b:
		return 0
	case a < b:
		return 1
	default:
		return 2
	}
}

// truncDiverges reports whether float->int truncation of the shadow
// disagrees with the reference.
func truncDiverges(b, sb float64) bool {
	return int64(b) != int64(sb)
}
