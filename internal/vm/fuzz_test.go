package vm

import (
	"encoding/binary"
	"math"
	"math/rand"
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

// fuzzGPRs are the registers fuzz programs use; the first four double as
// memory base registers.
var fuzzGPRs = [8]uint8{isa.R8, isa.R9, isa.RAX, isa.RCX, isa.RDX, isa.RBX, isa.R14, isa.R15}

// fuzzMemSize is the fuzz programs' memory: the data segment plus a
// little, so displacements off the base registers run out of bounds.
const fuzzMemSize = prog.DataBase + 512

// decodeFuzzProgram builds the program, its register seed and step cap.
func decodeFuzzProgram(data []byte) (mod *prog.Module, seed int64, max uint64, ok bool) {
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
	fn := &prog.Func{Name: "main", Instrs: instrs}
	mod, err := prog.Build("fuzz", []*prog.Func{fn}, dataSeg, fuzzMemSize, "main")
	if err != nil {
		return nil, 0, 0, false
	}
	return mod, seed, max, true
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
