package vm

import (
	"math"

	"fpmix/internal/isa"
)

// stepFP executes floating-point and XMM data-movement instructions.
func (m *Machine) stepFP(in *isa.Instr) error {
	if m.TrapUnreplaced && isa.ConsumesFP(in.Op) {
		if err := m.checkUnreplaced(in); err != nil {
			return err
		}
	}

	switch in.Op {
	case isa.MOVSD:
		return m.mov64(in)
	case isa.MOVSS:
		return m.mov32(in)
	case isa.MOVAPD:
		return m.mov128(in)
	case isa.MOVQ:
		// Lane-0 transfer between XMM and GPR; the XMM-destination form
		// preserves lane 1 (PINSRQ-style), which replacement snippets rely
		// on to avoid clobbering live packed data.
		if in.A.Kind == isa.KindGPR {
			m.GPR[in.A.Reg] = m.XMM[in.B.Reg][0]
		} else {
			m.XMM[in.A.Reg][0] = m.GPR[in.B.Reg]
		}
		return nil
	case isa.MOVHQ:
		if in.A.Kind == isa.KindGPR {
			m.GPR[in.A.Reg] = m.XMM[in.B.Reg][1]
		} else {
			m.XMM[in.A.Reg][1] = m.GPR[in.B.Reg]
		}
		return nil

	case isa.ANDPD, isa.ORPD, isa.XORPD:
		lo, hi, err := m.src128(in)
		if err != nil {
			return err
		}
		x := &m.XMM[in.A.Reg]
		switch in.Op {
		case isa.ANDPD:
			x[0] &= lo
			x[1] &= hi
		case isa.ORPD:
			x[0] |= lo
			x[1] |= hi
		default:
			x[0] ^= lo
			x[1] ^= hi
		}
		return nil

	case isa.ADDSD, isa.SUBSD, isa.MULSD, isa.DIVSD, isa.MINSD, isa.MAXSD:
		b, err := m.srcF64(in)
		if err != nil {
			return err
		}
		a := math.Float64frombits(m.XMM[in.A.Reg][0])
		m.XMM[in.A.Reg][0] = math.Float64bits(arith64(in.Op, a, b))
		return nil
	case isa.SQRTSD:
		b, err := m.srcF64(in)
		if err != nil {
			return err
		}
		m.XMM[in.A.Reg][0] = math.Float64bits(math.Sqrt(b))
		return nil
	case isa.SINSD, isa.COSSD, isa.EXPSD, isa.LOGSD:
		b, err := m.srcF64(in)
		if err != nil {
			return err
		}
		m.XMM[in.A.Reg][0] = math.Float64bits(transc64(in.Op, b))
		return nil
	case isa.UCOMISD:
		b, err := m.srcF64(in)
		if err != nil {
			return err
		}
		m.setUcomi(math.Float64frombits(m.XMM[in.A.Reg][0]), b)
		return nil

	case isa.CVTSD2SS:
		b, err := m.srcF64(in)
		if err != nil {
			return err
		}
		m.setLow32(in.A.Reg, math.Float32bits(float32(b)))
		return nil
	case isa.CVTSS2SD:
		b, err := m.srcF32(in)
		if err != nil {
			return err
		}
		m.XMM[in.A.Reg][0] = math.Float64bits(float64(b))
		return nil
	case isa.CVTSI2SD:
		m.XMM[in.A.Reg][0] = math.Float64bits(float64(int64(m.GPR[in.B.Reg])))
		return nil
	case isa.CVTTSD2SI:
		b := math.Float64frombits(m.XMM[in.B.Reg][0])
		m.GPR[in.A.Reg] = uint64(int64(b))
		return nil
	case isa.CVTSI2SS:
		m.setLow32(in.A.Reg, math.Float32bits(float32(int64(m.GPR[in.B.Reg]))))
		return nil
	case isa.CVTTSS2SI:
		b := math.Float32frombits(uint32(m.XMM[in.B.Reg][0]))
		m.GPR[in.A.Reg] = uint64(int64(b))
		return nil

	case isa.ADDSS, isa.SUBSS, isa.MULSS, isa.DIVSS, isa.MINSS, isa.MAXSS:
		b, err := m.srcF32(in)
		if err != nil {
			return err
		}
		a := math.Float32frombits(uint32(m.XMM[in.A.Reg][0]))
		m.setLow32(in.A.Reg, math.Float32bits(arith32(in.Op, a, b)))
		return nil
	case isa.SQRTSS:
		b, err := m.srcF32(in)
		if err != nil {
			return err
		}
		m.setLow32(in.A.Reg, math.Float32bits(sqrt32(b)))
		return nil
	case isa.SINSS, isa.COSSS, isa.EXPSS, isa.LOGSS:
		b, err := m.srcF32(in)
		if err != nil {
			return err
		}
		m.setLow32(in.A.Reg, math.Float32bits(transc32(in.Op, b)))
		return nil
	case isa.UCOMISS:
		b, err := m.srcF32(in)
		if err != nil {
			return err
		}
		a := math.Float32frombits(uint32(m.XMM[in.A.Reg][0]))
		m.setUcomi(float64(a), float64(b))
		return nil

	case isa.ADDPD, isa.SUBPD, isa.MULPD, isa.DIVPD:
		lo, hi, err := m.src128(in)
		if err != nil {
			return err
		}
		x := &m.XMM[in.A.Reg]
		base := packedBase(in.Op)
		x[0] = math.Float64bits(arith64(base, math.Float64frombits(x[0]), math.Float64frombits(lo)))
		x[1] = math.Float64bits(arith64(base, math.Float64frombits(x[1]), math.Float64frombits(hi)))
		return nil
	case isa.SQRTPD:
		lo, hi, err := m.src128(in)
		if err != nil {
			return err
		}
		m.XMM[in.A.Reg][0] = math.Float64bits(math.Sqrt(math.Float64frombits(lo)))
		m.XMM[in.A.Reg][1] = math.Float64bits(math.Sqrt(math.Float64frombits(hi)))
		return nil

	case isa.ADDPS, isa.SUBPS, isa.MULPS, isa.DIVPS:
		lo, hi, err := m.src128(in)
		if err != nil {
			return err
		}
		x := &m.XMM[in.A.Reg]
		base := packedBase(in.Op)
		x[0] = ps2(base, x[0], lo)
		x[1] = ps2(base, x[1], hi)
		return nil
	case isa.SQRTPS:
		lo, hi, err := m.src128(in)
		if err != nil {
			return err
		}
		m.XMM[in.A.Reg][0] = psSqrt(lo)
		m.XMM[in.A.Reg][1] = psSqrt(hi)
		return nil
	}
	return m.fault(FaultBadPC, in, "unimplemented opcode")
}

// setLow32 writes the low 32 bits of lane 0, preserving all other bits —
// the x86 scalar-single merge semantics the replacement flag scheme
// depends on.
func (m *Machine) setLow32(reg uint8, v uint32) {
	m.XMM[reg][0] = m.XMM[reg][0]&^0xFFFFFFFF | uint64(v)
}

// srcF64 fetches the 64-bit source operand (XMM lane 0 or 8-byte memory).
func (m *Machine) srcF64(in *isa.Instr) (float64, error) {
	switch in.B.Kind {
	case isa.KindXMM:
		return math.Float64frombits(m.XMM[in.B.Reg][0]), nil
	case isa.KindMem:
		v, err := m.load(in, in.B.Mem, 8)
		if err != nil {
			return 0, err
		}
		return math.Float64frombits(v), nil
	}
	return 0, m.fault(FaultBadPC, in, "bad FP source operand")
}

// srcF32 fetches the 32-bit source operand (low bits of XMM lane 0 or
// 4-byte memory).
func (m *Machine) srcF32(in *isa.Instr) (float32, error) {
	switch in.B.Kind {
	case isa.KindXMM:
		return math.Float32frombits(uint32(m.XMM[in.B.Reg][0])), nil
	case isa.KindMem:
		v, err := m.load(in, in.B.Mem, 4)
		if err != nil {
			return 0, err
		}
		return math.Float32frombits(uint32(v)), nil
	}
	return 0, m.fault(FaultBadPC, in, "bad FP source operand")
}

// src128 fetches a full 128-bit source (XMM or 16-byte memory).
func (m *Machine) src128(in *isa.Instr) (lo, hi uint64, err error) {
	switch in.B.Kind {
	case isa.KindXMM:
		return m.XMM[in.B.Reg][0], m.XMM[in.B.Reg][1], nil
	case isa.KindMem:
		lo, err = m.load(in, in.B.Mem, 8)
		if err != nil {
			return 0, 0, err
		}
		off := in.B.Mem
		off.Disp += 8
		hi, err = m.load(in, off, 8)
		return lo, hi, err
	}
	return 0, 0, m.fault(FaultBadPC, in, "bad FP source operand")
}

func (m *Machine) mov64(in *isa.Instr) error {
	switch {
	case in.A.Kind == isa.KindXMM && in.B.Kind == isa.KindXMM:
		m.XMM[in.A.Reg][0] = m.XMM[in.B.Reg][0]
	case in.A.Kind == isa.KindXMM && in.B.Kind == isa.KindMem:
		v, err := m.load(in, in.B.Mem, 8)
		if err != nil {
			return err
		}
		// Load form zeroes the upper lane, as on x86.
		m.XMM[in.A.Reg][0], m.XMM[in.A.Reg][1] = v, 0
	case in.A.Kind == isa.KindMem && in.B.Kind == isa.KindXMM:
		return m.store(in, in.A.Mem, m.XMM[in.B.Reg][0], 8)
	default:
		return m.fault(FaultBadPC, in, "bad movsd operands")
	}
	return nil
}

func (m *Machine) mov32(in *isa.Instr) error {
	switch {
	case in.A.Kind == isa.KindXMM && in.B.Kind == isa.KindXMM:
		m.setLow32(in.A.Reg, uint32(m.XMM[in.B.Reg][0]))
	case in.A.Kind == isa.KindXMM && in.B.Kind == isa.KindMem:
		v, err := m.load(in, in.B.Mem, 4)
		if err != nil {
			return err
		}
		// Load form zeroes bits 32..127, as on x86.
		m.XMM[in.A.Reg][0], m.XMM[in.A.Reg][1] = v, 0
	case in.A.Kind == isa.KindMem && in.B.Kind == isa.KindXMM:
		return m.store(in, in.A.Mem, m.XMM[in.B.Reg][0], 4)
	default:
		return m.fault(FaultBadPC, in, "bad movss operands")
	}
	return nil
}

func (m *Machine) mov128(in *isa.Instr) error {
	switch {
	case in.A.Kind == isa.KindXMM && in.B.Kind == isa.KindXMM:
		m.XMM[in.A.Reg] = m.XMM[in.B.Reg]
	case in.A.Kind == isa.KindXMM && in.B.Kind == isa.KindMem:
		lo, hi, err := m.src128(in)
		if err != nil {
			return err
		}
		m.XMM[in.A.Reg][0], m.XMM[in.A.Reg][1] = lo, hi
	case in.A.Kind == isa.KindMem && in.B.Kind == isa.KindXMM:
		if err := m.store(in, in.A.Mem, m.XMM[in.B.Reg][0], 8); err != nil {
			return err
		}
		off := in.A.Mem
		off.Disp += 8
		return m.store(in, off, m.XMM[in.B.Reg][1], 8)
	default:
		return m.fault(FaultBadPC, in, "bad movapd operands")
	}
	return nil
}

// checkUnreplaced faults if any floating-point input of the candidate
// instruction carries the replacement flag.
func (m *Machine) checkUnreplaced(in *isa.Instr) error {
	check := func(bits uint64, what string) error {
		if uint32(bits>>32) == isa.ReplacedFlag {
			return m.fault(FaultUnreplacedInput, in, what)
		}
		return nil
	}
	packed := isa.IsPacked(in.Op)
	if isa.DstIsSource(in.Op) && in.A.Kind == isa.KindXMM {
		if err := check(m.XMM[in.A.Reg][0], "dst lane0"); err != nil {
			return err
		}
		if packed {
			if err := check(m.XMM[in.A.Reg][1], "dst lane1"); err != nil {
				return err
			}
		}
	}
	switch in.B.Kind {
	case isa.KindXMM:
		if err := check(m.XMM[in.B.Reg][0], "src lane0"); err != nil {
			return err
		}
		if packed {
			if err := check(m.XMM[in.B.Reg][1], "src lane1"); err != nil {
				return err
			}
		}
	case isa.KindMem:
		if v, err := m.load(in, in.B.Mem, 8); err == nil {
			if err := check(v, "src mem"); err != nil {
				return err
			}
		}
	}
	return nil
}

// arith64 and arith32 follow x86's NaN rule for the arithmetic ops: a NaN
// first operand is returned quieted, even when both are NaN. Go leaves a
// NaN result's payload unspecified and may commute a+b and a*b, so two
// compiled forms of one instruction (interpreter, closure, fused load-op)
// could otherwise disagree — and replaced values travel as NaN-boxed
// singles, so payloads are data. A NaN second operand alone, or an
// invalid operation, yields the same NaN in either operand order.
func arith64(op isa.Op, a, b float64) float64 {
	var r float64
	switch op {
	case isa.ADDSD:
		r = a + b
	case isa.SUBSD:
		r = a - b
	case isa.MULSD:
		r = a * b
	case isa.DIVSD:
		r = a / b
	case isa.MINSD:
		// x86 semantics: return b on NaN or equality.
		if a < b {
			return a
		}
		return b
	default: // MAXSD
		if a > b {
			return a
		}
		return b
	}
	if r != r && a != a {
		return math.Float64frombits(math.Float64bits(a) | 1<<51)
	}
	return r
}

func arith32(op isa.Op, a, b float32) float32 {
	var r float32
	switch op {
	case isa.ADDSS:
		r = a + b
	case isa.SUBSS:
		r = a - b
	case isa.MULSS:
		r = a * b
	case isa.DIVSS:
		r = a / b
	case isa.MINSS:
		if a < b {
			return a
		}
		return b
	default: // MAXSS
		if a > b {
			return a
		}
		return b
	}
	if r != r && a != a {
		return math.Float32frombits(math.Float32bits(a) | 1<<22)
	}
	return r
}

func sqrt32(b float32) float32 {
	return float32(math.Sqrt(float64(b)))
}

func transc64(op isa.Op, b float64) float64 {
	switch op {
	case isa.SINSD:
		return math.Sin(b)
	case isa.COSSD:
		return math.Cos(b)
	case isa.EXPSD:
		return math.Exp(b)
	default: // LOGSD
		return math.Log(b)
	}
}

func transc32(op isa.Op, b float32) float32 {
	switch op {
	case isa.SINSS:
		return float32(math.Sin(float64(b)))
	case isa.COSSS:
		return float32(math.Cos(float64(b)))
	case isa.EXPSS:
		return float32(math.Exp(float64(b)))
	default: // LOGSS
		return float32(math.Log(float64(b)))
	}
}

// packedBase maps a packed opcode to the scalar opcode implementing its
// per-lane operation.
func packedBase(op isa.Op) isa.Op {
	switch op {
	case isa.ADDPD:
		return isa.ADDSD
	case isa.SUBPD:
		return isa.SUBSD
	case isa.MULPD:
		return isa.MULSD
	case isa.DIVPD:
		return isa.DIVSD
	case isa.ADDPS:
		return isa.ADDSS
	case isa.SUBPS:
		return isa.SUBSS
	case isa.MULPS:
		return isa.MULSS
	case isa.DIVPS:
		return isa.DIVSS
	}
	return op
}

// ps2 applies a 32-bit lane operation to both halves of one 64-bit lane.
func ps2(base isa.Op, a, b uint64) uint64 {
	lo := arith32(ssFromSd(base), math.Float32frombits(uint32(a)), math.Float32frombits(uint32(b)))
	hi := arith32(ssFromSd(base), math.Float32frombits(uint32(a>>32)), math.Float32frombits(uint32(b>>32)))
	return uint64(math.Float32bits(lo)) | uint64(math.Float32bits(hi))<<32
}

func psSqrt(b uint64) uint64 {
	lo := sqrt32(math.Float32frombits(uint32(b)))
	hi := sqrt32(math.Float32frombits(uint32(b >> 32)))
	return uint64(math.Float32bits(lo)) | uint64(math.Float32bits(hi))<<32
}

// ssFromSd maps a scalar-double opcode to its scalar-single twin for lane
// helpers (identity for already-single opcodes).
func ssFromSd(op isa.Op) isa.Op {
	if s, ok := isa.SingleEquivalent(op); ok {
		return s
	}
	return op
}
