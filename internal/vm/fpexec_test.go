package vm

import (
	"math"
	"testing"

	"fpmix/internal/isa"
	"fpmix/internal/prog"
)

// Supplementary coverage for FP instruction semantics not exercised by
// the compiler-generated tests: bitwise XMM ops, 128-bit memory moves,
// scalar-single forms, and x86 min/max NaN behavior.

func TestBitwiseXmmOps(t *testing.T) {
	mask := int64(0x7FFFFFFFFFFFFFFF)
	neg := math.Float64bits(-3.5)
	instrs := []isa.Instr{
		isa.I(isa.MOVRI, isa.Gpr(isa.R15), isa.Imm(int64(neg))),
		isa.I(isa.MOVQ, isa.Xmm(0), isa.Gpr(isa.R15)),
		isa.I(isa.MOVHQ, isa.Xmm(0), isa.Gpr(isa.R15)),
		isa.I(isa.MOVRI, isa.Gpr(isa.R14), isa.Imm(mask)),
		isa.I(isa.MOVQ, isa.Xmm(1), isa.Gpr(isa.R14)),
		isa.I(isa.MOVHQ, isa.Xmm(1), isa.Gpr(isa.R14)),
		isa.I(isa.ANDPD, isa.Xmm(0), isa.Xmm(1)), // fabs both lanes
		isa.I(isa.HALT),
	}
	m := run(t, instrs)
	if got := math.Float64frombits(m.XMM[0][0]); got != 3.5 {
		t.Errorf("andpd lane0 = %v", got)
	}
	if got := math.Float64frombits(m.XMM[0][1]); got != 3.5 {
		t.Errorf("andpd lane1 = %v", got)
	}

	// XORPD with self zeroes; ORPD merges bits.
	instrs2 := []isa.Instr{
		isa.I(isa.MOVRI, isa.Gpr(isa.R15), isa.Imm(int64(math.Float64bits(7.25)))),
		isa.I(isa.MOVQ, isa.Xmm(2), isa.Gpr(isa.R15)),
		isa.I(isa.XORPD, isa.Xmm(2), isa.Xmm(2)),
		isa.I(isa.MOVRI, isa.Gpr(isa.R15), isa.Imm(0x55)),
		isa.I(isa.MOVQ, isa.Xmm(3), isa.Gpr(isa.R15)),
		isa.I(isa.ORPD, isa.Xmm(2), isa.Xmm(3)),
		isa.I(isa.HALT),
	}
	m2 := run(t, instrs2)
	if m2.XMM[2][0] != 0x55 || m2.XMM[2][1] != 0 {
		t.Errorf("xorpd/orpd = %#x, %#x", m2.XMM[2][0], m2.XMM[2][1])
	}
}

func TestMovapdMemoryForms(t *testing.T) {
	base := int64(prog.DataBase)
	instrs := []isa.Instr{
		isa.I(isa.MOVRI, isa.Gpr(isa.RBX), isa.Imm(base)),
		isa.I(isa.MOVRI, isa.Gpr(isa.R15), isa.Imm(int64(math.Float64bits(1.5)))),
		isa.I(isa.MOVQ, isa.Xmm(0), isa.Gpr(isa.R15)),
		isa.I(isa.MOVRI, isa.Gpr(isa.R15), isa.Imm(int64(math.Float64bits(2.5)))),
		isa.I(isa.MOVHQ, isa.Xmm(0), isa.Gpr(isa.R15)),
		isa.I(isa.MOVAPD, isa.Mem(isa.RBX, 16), isa.Xmm(0)), // store 128
		isa.I(isa.MOVAPD, isa.Xmm(5), isa.Mem(isa.RBX, 16)), // load 128
		isa.I(isa.MOVAPD, isa.Xmm(6), isa.Xmm(5)),           // reg-reg
		isa.I(isa.HALT),
	}
	m := run(t, instrs)
	if math.Float64frombits(m.XMM[6][0]) != 1.5 || math.Float64frombits(m.XMM[6][1]) != 2.5 {
		t.Errorf("movapd round trip = %v, %v",
			math.Float64frombits(m.XMM[6][0]), math.Float64frombits(m.XMM[6][1]))
	}
}

func TestMovssForms(t *testing.T) {
	base := int64(prog.DataBase)
	bits := int64(math.Float32bits(9.75))
	instrs := []isa.Instr{
		isa.I(isa.MOVRI, isa.Gpr(isa.RBX), isa.Imm(base)),
		isa.I(isa.MOVRI, isa.Gpr(isa.R15), isa.Imm(bits)),
		isa.I(isa.MOVQ, isa.Xmm(0), isa.Gpr(isa.R15)),
		isa.I(isa.MOVSS, isa.Mem(isa.RBX, 4), isa.Xmm(0)), // 4-byte store
		// Dirty target register, then 4-byte load: zeroes bits 32..127.
		isa.I(isa.MOVRI, isa.Gpr(isa.R14), isa.Imm(-1)),
		isa.I(isa.MOVQ, isa.Xmm(1), isa.Gpr(isa.R14)),
		isa.I(isa.MOVHQ, isa.Xmm(1), isa.Gpr(isa.R14)),
		isa.I(isa.MOVSS, isa.Xmm(1), isa.Mem(isa.RBX, 4)),
		// reg-reg merges only the low 32 bits.
		isa.I(isa.MOVQ, isa.Xmm(2), isa.Gpr(isa.R14)),
		isa.I(isa.MOVSS, isa.Xmm(2), isa.Xmm(1)),
		isa.I(isa.HALT),
	}
	m := run(t, instrs)
	if m.XMM[1][0] != uint64(uint32(bits)) || m.XMM[1][1] != 0 {
		t.Errorf("movss load = %#x, %#x", m.XMM[1][0], m.XMM[1][1])
	}
	wantMerge := uint64(0xFFFFFFFF00000000) | uint64(uint32(bits))
	if m.XMM[2][0] != wantMerge {
		t.Errorf("movss reg-reg = %#x, want %#x", m.XMM[2][0], wantMerge)
	}
}

func TestScalarSingleConversions(t *testing.T) {
	instrs := []isa.Instr{
		isa.I(isa.MOVRI, isa.Gpr(isa.RAX), isa.Imm(-9)),
		isa.I(isa.CVTSI2SS, isa.Xmm(0), isa.Gpr(isa.RAX)),
		isa.I(isa.CVTTSS2SI, isa.Gpr(isa.RBX), isa.Xmm(0)),
		isa.I(isa.HALT),
	}
	m := run(t, instrs)
	if got := math.Float32frombits(uint32(m.XMM[0][0])); got != -9 {
		t.Errorf("cvtsi2ss = %v", got)
	}
	if int64(m.GPR[isa.RBX]) != -9 {
		t.Errorf("cvttss2si = %d", int64(m.GPR[isa.RBX]))
	}
}

func TestMinMaxX86NaNSemantics(t *testing.T) {
	// x86 MINSD/MAXSD return the SECOND operand when either input is NaN.
	nan := int64(math.Float64bits(math.NaN()))
	two := int64(math.Float64bits(2.0))
	mk := func(op isa.Op, aBits, bBits int64) *Machine {
		return run(t, []isa.Instr{
			isa.I(isa.MOVRI, isa.Gpr(isa.R15), isa.Imm(aBits)),
			isa.I(isa.MOVQ, isa.Xmm(0), isa.Gpr(isa.R15)),
			isa.I(isa.MOVRI, isa.Gpr(isa.R15), isa.Imm(bBits)),
			isa.I(isa.MOVQ, isa.Xmm(1), isa.Gpr(isa.R15)),
			isa.I(op, isa.Xmm(0), isa.Xmm(1)),
			isa.I(isa.HALT),
		})
	}
	if got := math.Float64frombits(mk(isa.MINSD, nan, two).XMM[0][0]); got != 2.0 {
		t.Errorf("minsd(NaN, 2) = %v, want 2 (src operand)", got)
	}
	if got := math.Float64frombits(mk(isa.MAXSD, nan, two).XMM[0][0]); got != 2.0 {
		t.Errorf("maxsd(NaN, 2) = %v, want 2 (src operand)", got)
	}
	if got := mk(isa.MINSD, two, nan).XMM[0][0]; !math.IsNaN(math.Float64frombits(got)) {
		t.Errorf("minsd(2, NaN) = %v, want NaN (src operand)", math.Float64frombits(got))
	}
}

func TestSqrtPackedForms(t *testing.T) {
	mk := func(lo, hi float64) []isa.Instr {
		return []isa.Instr{
			isa.I(isa.MOVRI, isa.Gpr(isa.R15), isa.Imm(int64(math.Float64bits(lo)))),
			isa.I(isa.MOVQ, isa.Xmm(1), isa.Gpr(isa.R15)),
			isa.I(isa.MOVRI, isa.Gpr(isa.R15), isa.Imm(int64(math.Float64bits(hi)))),
			isa.I(isa.MOVHQ, isa.Xmm(1), isa.Gpr(isa.R15)),
			isa.I(isa.SQRTPD, isa.Xmm(0), isa.Xmm(1)),
			isa.I(isa.HALT),
		}
	}
	m := run(t, mk(16.0, 25.0))
	if math.Float64frombits(m.XMM[0][0]) != 4 || math.Float64frombits(m.XMM[0][1]) != 5 {
		t.Errorf("sqrtpd = %v, %v",
			math.Float64frombits(m.XMM[0][0]), math.Float64frombits(m.XMM[0][1]))
	}
}

func TestSubDivPackedSingle(t *testing.T) {
	pack := func(a, b float32) int64 {
		return int64(uint64(math.Float32bits(b))<<32 | uint64(math.Float32bits(a)))
	}
	instrs := []isa.Instr{
		isa.I(isa.MOVRI, isa.Gpr(isa.R15), isa.Imm(pack(8, 18))),
		isa.I(isa.MOVQ, isa.Xmm(0), isa.Gpr(isa.R15)),
		isa.I(isa.MOVRI, isa.Gpr(isa.R15), isa.Imm(pack(32, 50))),
		isa.I(isa.MOVHQ, isa.Xmm(0), isa.Gpr(isa.R15)),
		isa.I(isa.MOVRI, isa.Gpr(isa.R15), isa.Imm(pack(2, 3))),
		isa.I(isa.MOVQ, isa.Xmm(1), isa.Gpr(isa.R15)),
		isa.I(isa.MOVRI, isa.Gpr(isa.R15), isa.Imm(pack(4, 5))),
		isa.I(isa.MOVHQ, isa.Xmm(1), isa.Gpr(isa.R15)),
		isa.I(isa.DIVPS, isa.Xmm(0), isa.Xmm(1)),
		isa.I(isa.HALT),
	}
	m := run(t, instrs)
	lanes := []float32{
		math.Float32frombits(uint32(m.XMM[0][0])),
		math.Float32frombits(uint32(m.XMM[0][0] >> 32)),
		math.Float32frombits(uint32(m.XMM[0][1])),
		math.Float32frombits(uint32(m.XMM[0][1] >> 32)),
	}
	want := []float32{4, 6, 8, 10}
	for i := range want {
		if lanes[i] != want[i] {
			t.Errorf("divps lane %d = %v, want %v", i, lanes[i], want[i])
		}
	}
}

func TestIntegerDivision(t *testing.T) {
	m := run(t, []isa.Instr{
		isa.I(isa.MOVRI, isa.Gpr(isa.RAX), isa.Imm(-37)),
		isa.I(isa.MOVRI, isa.Gpr(isa.RBX), isa.Imm(5)),
		isa.I(isa.IDIVR, isa.Gpr(isa.RAX), isa.Gpr(isa.RBX)),
		isa.I(isa.HALT),
	})
	if int64(m.GPR[isa.RAX]) != -7 {
		t.Errorf("idiv = %d, want -7 (truncating)", int64(m.GPR[isa.RAX]))
	}
	mach := mach(t, []isa.Instr{
		isa.I(isa.MOVRI, isa.Gpr(isa.RAX), isa.Imm(1)),
		isa.I(isa.XORR, isa.Gpr(isa.RBX), isa.Gpr(isa.RBX)),
		isa.I(isa.IDIVR, isa.Gpr(isa.RAX), isa.Gpr(isa.RBX)),
		isa.I(isa.HALT),
	})
	if err := mach.Run(); err == nil {
		t.Error("division by zero did not fault")
	}
}

// TestAddMulX86NaNPropagation pins x86's NaN rule for the commutative
// ops: a NaN operand is returned quieted, the destination's when both
// are NaN. Go leaves NaN payloads unspecified and may commute a+b, so
// the interpreter, a compiled closure and a fused load-op must apply the
// rule explicitly to agree (replaced values travel as NaN-boxed singles,
// so payloads are data).
func TestAddMulX86NaNPropagation(t *testing.T) {
	const nanA, nanB = 0x7ff4dead00000001, 0x7ffcbeef00000002 // A signaling, B quiet
	base := int64(prog.DataBase)
	for _, c := range []struct {
		name string
		op   isa.Op
		a, b int64
		want uint64
	}{
		{"addsd both", isa.ADDSD, nanA, nanB, nanA | 1<<51},
		{"mulsd both", isa.MULSD, nanA, nanB, nanA | 1<<51},
		{"addsd src", isa.ADDSD, int64(math.Float64bits(2)), nanB, nanB},
		{"addss both", isa.ADDSS, 0x7fa00001, 0x7fc00002, 0x7fe00001},
		{"mulss both", isa.MULSS, 0x7fa00001, 0x7fc00002, 0x7fe00001},
	} {
		for _, form := range []string{"reg", "mem", "fused"} {
			instrs := []isa.Instr{
				isa.I(isa.MOVRI, isa.Gpr(isa.RBX), isa.Imm(base)),
				isa.I(isa.MOVRI, isa.Gpr(isa.R15), isa.Imm(c.a)),
				isa.I(isa.MOVQ, isa.Xmm(0), isa.Gpr(isa.R15)),
				isa.I(isa.MOVRI, isa.Gpr(isa.R15), isa.Imm(c.b)),
				isa.I(isa.MOVQ, isa.Xmm(1), isa.Gpr(isa.R15)),
				isa.I(isa.STORE, isa.Mem(isa.RBX, 8), isa.Gpr(isa.R15)),
			}
			switch form {
			case "mem":
				instrs = append(instrs, isa.I(c.op, isa.Xmm(0), isa.Mem(isa.RBX, 8)))
			case "fused":
				// MOVSD xmm, mem; ADDSD|MULSD xmm, xmm compiles to one micro-op.
				instrs = append(instrs, isa.I(isa.MOVSD, isa.Xmm(2), isa.Mem(isa.RBX, 0)), isa.I(c.op, isa.Xmm(0), isa.Xmm(1)))
			default:
				instrs = append(instrs, isa.I(c.op, isa.Xmm(0), isa.Xmm(1)))
			}
			instrs = append(instrs, isa.I(isa.HALT))
			for _, noCompile := range []bool{true, false} {
				m := mach(t, instrs)
				m.NoCompile = noCompile
				if err := m.Run(); err != nil {
					t.Fatal(err)
				}
				got := m.XMM[0][0]
				if c.op == isa.ADDSS || c.op == isa.MULSS {
					got = uint64(uint32(got))
				}
				if got != c.want {
					t.Errorf("%s (%s, nocompile %v) = %#x, want %#x", c.name, form, noCompile, got, c.want)
				}
			}
		}
	}
}
