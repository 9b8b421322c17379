package vm

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"fpmix/internal/isa"
	"fpmix/internal/prog"
)

// FuzzCompiledMatchesStep decodes fuzz bytes into a straight-line program
// over the opcodes the pattern superinstructions fuse (plus HALT), runs
// it linked on the compiled tier and on the per-step interpreter from the
// same seeded register file and small memory, and requires identical
// machines: registers, flags, memory, dirty pages, Steps, Cycles,
// Counts, PC and fault. Base registers point near the end of memory and
// loaded values feed later addresses, so many programs fault part-way.
//
// Input layout: byte 0 seeds the register file and data segment; byte 1
// with its top bit set caps the run at (byte 1 & 63) steps; then three
// bytes per instruction (selector, register byte, value byte).
func FuzzCompiledMatchesStep(f *testing.F) {
	f.Add([]byte{1, 0, 20, 0, 0, 34, 0, 0, 21, 0, 0, 26, 0, 0, 29, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		mod, seed, max, ok := decodeFuzzProgram(data)
		if !ok {
			return
		}
		lp, err := Link(mod)
		if err != nil {
			t.Fatal(err)
		}
		run := func(noCompile bool) engineResult {
			m := lp.NewMachine()
			m.NoCompile = noCompile
			m.MaxSteps = max
			m.TrackDirtyPages()
			seedFuzzMachine(m, seed)
			return engineResult{m, m.Run()}
		}
		a, b := run(false), run(true)
		diffMachines(t, "compiled vs per-step", a, b)
		sameDirtyPages(t, "compiled vs per-step", a.m, b.m)
	})
}

// FuzzShadowCompiledMatchesStep is FuzzCompiledMatchesStep with the
// shadow pass on, over a wider instruction set: every shadow-observed
// shape (FP arithmetic, compares and conversions, scalar and packed
// memory moves, PUSH/POP, PUSHX/POPX and CALL into a subroutine) mixed
// with the fused opcodes. The compiled shadow stream and the per-step
// shadow (NoCompile) must leave identical machines and identical shadow
// state: ShadowRecords, shadow lanes and shadow memory. Step caps from
// byte 1 expire budgets mid-block.
func FuzzShadowCompiledMatchesStep(f *testing.F) {
	f.Add([]byte{3, 0, 40, 0, 0, 8, 0, 0, 42, 9, 8, 43, 8, 0, 58, 0, 0, 9, 8, 0, 54, 0, 1, 68, 0, 0, 7, 0, 0, 62, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		mod, seed, max, ok := decodeFuzz(data, true)
		if !ok {
			return
		}
		lp, err := Link(mod)
		if err != nil {
			t.Fatal(err)
		}
		run := func(noCompile bool) engineResult {
			m := lp.NewMachine()
			m.NoCompile = noCompile
			m.MaxSteps = max
			m.TrackDirtyPages()
			m.EnableShadow()
			seedFuzzMachine(m, seed)
			// Nonzero shadow lanes, so a missed hook shows.
			rnd := rand.New(rand.NewSource(seed))
			for x := range m.shadow.xmm {
				m.shadow.xmm[x] = [2]float32{float32(rnd.NormFloat64()), float32(rnd.NormFloat64())}
			}
			// Leave room above the stack for the subroutine's POPX.
			m.GPR[isa.RSP] -= 64
			return engineResult{m, m.Run()}
		}
		a, b := run(false), run(true)
		diffMachines(t, "compiled vs per-step shadow", a, b)
		sameDirtyPages(t, "compiled vs per-step shadow", a.m, b.m)
		sameShadow(t, "compiled vs per-step shadow", a.m, b.m)
	})
}

// sameShadow reports any difference between two machines' shadow state:
// their ShadowRecords, shadow lanes and shadow memory.
func sameShadow(t *testing.T, label string, a, b *Machine) {
	t.Helper()
	if ra, rb := a.ShadowRecords(), b.ShadowRecords(); !reflect.DeepEqual(ra, rb) {
		t.Errorf("%s: shadow records differ:\n  %+v\n  %+v", label, ra, rb)
	}
	// Shadows may be NaN, so lanes and memory compare by bits.
	for r := range a.shadow.xmm {
		for l := range a.shadow.xmm[r] {
			if x, y := a.shadow.xmm[r][l], b.shadow.xmm[r][l]; math.Float32bits(x) != math.Float32bits(y) {
				t.Errorf("%s: shadow lane xmm%d[%d] differs: %v vs %v", label, r, l, x, y)
			}
		}
	}
	am, bm := &a.shadow.mem, &b.shadow.mem
	for addr := uint64(0); addr < uint64(len(a.Mem)); addr += 4 {
		x, okA := am.get(addr)
		y, okB := bm.get(addr)
		if okA != okB || math.Float32bits(x) != math.Float32bits(y) {
			t.Errorf("%s: shadow memory at %#x differs: %v/%v vs %v/%v", label, addr, x, okA, y, okB)
		}
	}
	for k, x := range am.odd {
		if y, ok := bm.odd[k]; !ok || math.Float32bits(x) != math.Float32bits(y) {
			t.Errorf("%s: unaligned shadow memory at %#x differs", label, k)
		}
	}
	if len(am.odd) != len(bm.odd) {
		t.Errorf("%s: unaligned shadow memory sizes differ: %d vs %d", label, len(am.odd), len(bm.odd))
	}
}

// fuzzGPRs are the registers fuzz programs use; the first four double as
// memory base registers.
var fuzzGPRs = [8]uint8{isa.R8, isa.R9, isa.RAX, isa.RCX, isa.RDX, isa.RBX, isa.R14, isa.R15}

// fuzzMemSize is the fuzz programs' memory: the data segment plus a
// little, so displacements off the base registers run out of bounds.
const fuzzMemSize = prog.DataBase + 512

// decodeFuzzProgram builds the program, its register seed and step cap.
func decodeFuzzProgram(data []byte) (mod *prog.Module, seed int64, max uint64, ok bool) {
	return decodeFuzz(data, false)
}

// decodeFuzz is decodeFuzzProgram, widened when ext is set: selectors past
// the first 40 then pick from extFuzzOps, and the module gains a small
// subroutine that every CALL targets.
func decodeFuzz(data []byte, ext bool) (mod *prog.Module, seed int64, max uint64, ok bool) {
	if len(data) < 2 {
		return nil, 0, 0, false
	}
	seed = int64(data[0])
	if data[1]&0x80 != 0 {
		max = uint64(data[1]&63) + 1
	}
	var instrs []isa.Instr
	for rest := data[2:]; len(rest) >= 3 && len(instrs) < 64; rest = rest[3:] {
		sel, r, v := rest[0], rest[1], rest[2]
		g, g2 := isa.Gpr(fuzzGPRs[r&7]), isa.Gpr(fuzzGPRs[v&7])
		x, x2 := isa.Xmm((r>>3)&3), isa.Xmm((v>>3)&3)
		mem := isa.Mem(fuzzGPRs[(r>>5)&3], int32(int8(v))*4)
		if r&0x80 != 0 {
			mem = isa.MemIdx(fuzzGPRs[(r>>5)&3], fuzzGPRs[v&7], 8, int32(int8(v)))
		}
		imm := isa.Imm(int64(int8(v)))
		if n := byte(40 + len(extFuzzOps)); ext && sel%n >= 40 {
			instrs = append(instrs, extFuzzOps[sel%n-40](g, x, x2, mem))
			continue
		}
		switch sel % 40 {
		case 0:
			instrs = append(instrs, isa.I(isa.LOAD, g, mem))
		case 1:
			instrs = append(instrs, isa.I(isa.MOVRI, g, imm))
		case 2:
			instrs = append(instrs, isa.I(isa.IMULR, g, g2))
		case 3:
			instrs = append(instrs, isa.I(isa.ADDR, g, g2))
		case 4:
			instrs = append(instrs, isa.I(isa.SUBR, g, g2))
		case 5:
			instrs = append(instrs, isa.I(isa.CMPR, g, g2))
		case 6:
			instrs = append(instrs, isa.I(isa.ADDI, g, imm))
		case 7:
			instrs = append(instrs, isa.I(isa.STORE, mem, g))
		case 8:
			instrs = append(instrs, isa.I(isa.MOVSD, x, mem))
		case 9:
			instrs = append(instrs, isa.I(isa.ADDSD, x, x2))
		case 10:
			instrs = append(instrs, isa.I(isa.SUBSD, x, x2))
		case 11:
			instrs = append(instrs, isa.I(isa.MULSD, x, x2))
		case 12:
			instrs = append(instrs, isa.I(isa.MOVQ, g, x))
		case 13:
			instrs = append(instrs, isa.I(isa.MOVQ, x, g))
		case 14:
			instrs = append(instrs, isa.I(isa.MOVRR, g, g2))
		case 15:
			instrs = append(instrs, isa.I(isa.SHRI, g, isa.Imm(int64(v&63))))
		case 16:
			instrs = append(instrs, isa.I(isa.CMPI, g, imm))
		case 17:
			instrs = append(instrs, isa.I(isa.ANDR, g, g2))
		case 18:
			instrs = append(instrs, isa.I(isa.ORR, g, g2))
		case 19:
			instrs = append(instrs, isa.I(isa.HALT))
		default:
			// A whole pattern instance, so fusion fires often.
			fc := fuseCases[int(sel%40-20)%len(fuseCases)]
			instrs = append(instrs, fc.build(fuzzGPRs[(r>>5)&3], fuzzGPRs[(v>>5)&3])...)
		}
	}
	instrs = append(instrs, isa.I(isa.HALT))
	dataSeg := make([]byte, 256)
	rnd := rand.New(rand.NewSource(seed))
	for off := 0; off < len(dataSeg); off += 8 {
		w := uint64(rnd.Intn(48))
		if rnd.Intn(4) == 0 {
			w = math.Float64bits(rnd.NormFloat64())
		}
		binary.LittleEndian.PutUint64(dataSeg[off:], w)
	}
	funcs := []*prog.Func{{Name: "main", Instrs: instrs}}
	if ext {
		// The subroutine pops its return address into xmm3 and pushes it
		// back before returning, so the shadow of the slot CALL wrote is
		// observed.
		funcs = append(funcs, &prog.Func{Name: "sub", Instrs: []isa.Instr{
			isa.I(isa.POPX, isa.Xmm(3)),
			isa.I(isa.PUSHX, isa.Xmm(3)),
			isa.I(isa.MULSD, isa.Xmm(0), isa.Xmm(3)),
			isa.I(isa.PUSH, isa.Gpr(isa.RAX)),
			isa.I(isa.POP, isa.Gpr(isa.RCX)),
			isa.I(isa.RET),
		}})
	}
	mod, err := prog.Build("fuzz", funcs, dataSeg, fuzzMemSize, "main")
	if err != nil {
		return nil, 0, 0, false
	}
	for i := range instrs {
		if instrs[i].Op == isa.CALL {
			instrs[i].A.Imm = int64(funcs[1].Addr)
		}
	}
	return mod, seed, max, true
}

// extFuzzOps are the extra instruction shapes of the shadow fuzz target:
// the FP, memory-move, conversion, packed and stack forms the shadow
// hook observes, beyond the fused opcodes of the base selector set.
var extFuzzOps = []func(g, x, x2, mem isa.Operand) isa.Instr{
	func(_, x, _, mem isa.Operand) isa.Instr { return isa.I(isa.MOVSD, mem, x) },
	func(_, x, x2, _ isa.Operand) isa.Instr { return isa.I(isa.MOVSD, x, x2) },
	func(_, x, _, mem isa.Operand) isa.Instr { return isa.I(isa.ADDSD, x, mem) },
	func(_, x, x2, _ isa.Operand) isa.Instr { return isa.I(isa.DIVSD, x, x2) },
	func(_, x, x2, _ isa.Operand) isa.Instr { return isa.I(isa.SQRTSD, x, x2) },
	func(_, x, x2, _ isa.Operand) isa.Instr { return isa.I(isa.SINSD, x, x2) },
	func(_, x, x2, _ isa.Operand) isa.Instr { return isa.I(isa.UCOMISD, x, x2) },
	func(_, x, _, mem isa.Operand) isa.Instr { return isa.I(isa.UCOMISD, x, mem) },
	func(_, x, x2, _ isa.Operand) isa.Instr { return isa.I(isa.CVTSD2SS, x, x2) },
	func(_, x, x2, _ isa.Operand) isa.Instr { return isa.I(isa.CVTSS2SD, x, x2) },
	func(g, x, _, _ isa.Operand) isa.Instr { return isa.I(isa.CVTSI2SD, x, g) },
	func(g, x, _, _ isa.Operand) isa.Instr { return isa.I(isa.CVTTSD2SI, g, x) },
	func(g, x, _, _ isa.Operand) isa.Instr { return isa.I(isa.CVTSI2SS, x, g) },
	func(_, x, _, mem isa.Operand) isa.Instr { return isa.I(isa.MOVSS, x, mem) },
	func(_, x, _, mem isa.Operand) isa.Instr { return isa.I(isa.MOVSS, mem, x) },
	func(_, x, x2, _ isa.Operand) isa.Instr { return isa.I(isa.ADDSS, x, x2) },
	func(_, x, _, mem isa.Operand) isa.Instr { return isa.I(isa.MOVAPD, x, mem) },
	func(_, x, _, mem isa.Operand) isa.Instr { return isa.I(isa.MOVAPD, mem, x) },
	func(_, x, x2, _ isa.Operand) isa.Instr { return isa.I(isa.ADDPD, x, x2) },
	func(_, x, _, mem isa.Operand) isa.Instr { return isa.I(isa.MULPD, x, mem) },
	func(_, x, x2, _ isa.Operand) isa.Instr { return isa.I(isa.XORPD, x, x2) },
	func(_, x, x2, _ isa.Operand) isa.Instr { return isa.I(isa.ANDPD, x, x2) },
	func(_, x, x2, _ isa.Operand) isa.Instr { return isa.I(isa.MULPS, x, x2) },
	func(g, x, _, _ isa.Operand) isa.Instr { return isa.I(isa.MOVHQ, x, g) },
	func(g, _, _, _ isa.Operand) isa.Instr { return isa.I(isa.PUSH, g) },
	func(g, _, _, _ isa.Operand) isa.Instr { return isa.I(isa.POP, g) },
	func(_, x, _, _ isa.Operand) isa.Instr { return isa.I(isa.PUSHX, x) },
	func(_, x, _, _ isa.Operand) isa.Instr { return isa.I(isa.POPX, x) },
	func(_, _, _, _ isa.Operand) isa.Instr { return isa.I(isa.CALL, isa.Imm(0)) },
	func(_, x, x2, _ isa.Operand) isa.Instr { return isa.I(isa.ORPD, x, x2) },
	func(_, x, x2, _ isa.Operand) isa.Instr { return isa.I(isa.SQRTPD, x, x2) },
}

// seedFuzzMachine sets the register file from seed: base registers into
// (or, rarely, far outside) memory, small integers elsewhere, and XMM
// registers holding doubles or flagged singles.
func seedFuzzMachine(m *Machine, seed int64) {
	rnd := rand.New(rand.NewSource(^seed))
	for i, r := range fuzzGPRs {
		v := uint64(rnd.Intn(40))
		if i < 4 {
			v = prog.DataBase + uint64(rnd.Intn(400))
		}
		if rnd.Intn(16) == 0 {
			v = 1 << 40
		}
		m.GPR[r] = v
	}
	for x := 0; x < 4; x++ {
		lo := math.Float64bits(rnd.NormFloat64())
		if rnd.Intn(2) == 0 {
			lo = uint64(isa.ReplacedFlag)<<32 | uint64(math.Float32bits(float32(rnd.NormFloat64())))
		}
		m.XMM[x] = [2]uint64{lo, rnd.Uint64()}
	}
}
