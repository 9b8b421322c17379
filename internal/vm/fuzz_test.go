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
// bytes per instruction (selector, register byte, value byte). Selector
// 40 emits an index-access shape from its register and value bytes and
// the three bytes after them (fuzzIndexAccess), selector 41 an FP-family
// shape (fuzzFPShape) and selector 42 a compare ending in a conditional
// branch (fuzzFold), each from six bytes the same way.
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

// decodeFuzz is decodeFuzzProgram, widened when ext is set: selectors
// 40 and up then pick from extFuzzOps, the index-access selector moves to
// the one after them (and is the last), and the module gains a small
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
	// branches holds each fuzzFold branch's index and how many
	// instructions it skips forward, patched once addresses exist.
	var branches [][2]int
	idxSel := byte(40)
	if ext {
		idxSel += byte(len(extFuzzOps))
	}
	n := idxSel + 1
	if !ext {
		n += 2 // the FP-family and fold selectors
	}
	for rest := data[2:]; len(rest) >= 3 && len(instrs) < 64; rest = rest[3:] {
		sel, r, v := rest[0], rest[1], rest[2]
		g, g2 := isa.Gpr(fuzzGPRs[r&7]), isa.Gpr(fuzzGPRs[v&7])
		x, x2 := isa.Xmm((r>>3)&3), isa.Xmm((v>>3)&3)
		mem := isa.Mem(fuzzGPRs[(r>>5)&3], int32(int8(v))*4)
		if r&0x80 != 0 {
			mem = isa.MemIdx(fuzzGPRs[(r>>5)&3], fuzzGPRs[v&7], 8, int32(int8(v)))
		}
		imm := isa.Imm(int64(int8(v)))
		s := sel % n
		if s >= idxSel {
			var w [3]byte
			if len(rest) >= 6 {
				copy(w[:], rest[3:6])
				rest = rest[3:]
			}
			switch s - idxSel {
			case 0:
				instrs = append(instrs, fuzzIndexAccess(r, v, w)...)
			case 1:
				instrs = append(instrs, fuzzFPShape(r, v, w)...)
			default:
				fold, skip := fuzzFold(r, v, w)
				instrs = append(instrs, fold...)
				branches = append(branches, [2]int{len(instrs) - 1, skip})
			}
			continue
		}
		switch {
		case s >= 40:
			instrs = append(instrs, extFuzzOps[s-40](g, x, x2, mem))
			continue
		}
		switch s {
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
			fc := fuseCases[int(s-20)%len(fuseCases)]
			instrs = append(instrs, fc.build(fuzzGPRs[(r>>5)&3], fuzzGPRs[(v>>5)&3], fuzzGPRs[(r>>3)&3])...)
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
	for _, b := range branches {
		instrs[b[0]].A.Imm = int64(instrs[min(b[0]+1+b[1], len(instrs)-1)].Addr)
	}
	return mod, seed, max, true
}

// fuzzArith are the arithmetic ops the FP families chain.
var fuzzArith = [...]isa.Op{isa.ADDSD, isa.SUBSD, isa.MULSD, isa.DIVSD, isa.MINSD, isa.MAXSD}

// fuzzFPShape builds one FP-family shape (matchFP) from six fuzz bytes.
// r picks the form: bits 0-2 the head (none, a lone MOVSD load, a
// constant-index load, an FP constant, ADDR; MOVSD, LOAD; ADDR; MOVSD,
// and an index-access load twice), bits 3-4 the arithmetic count (1, 2,
// 3, 1), bits 5-6 the store (none, lone, constant-index, index-access)
// and bit 7 a fault: w[2]'s low bits then pick one memory constituent
// whose displacement runs past the end of memory. v and w seed the
// registers, ops, constants and displacements, and feed the index-access
// constituents, so some instances alias and run unfused.
func fuzzFPShape(r, v byte, w [3]byte) []isa.Instr {
	rnd := rand.New(rand.NewSource(int64(v)<<24 | int64(w[0])<<16 | int64(w[1])<<8 | int64(w[2])))
	gpr := func() uint8 { return fuzzGPRs[rnd.Intn(len(fuzzGPRs))] }
	base := func() uint8 { return fuzzGPRs[rnd.Intn(4)] }
	xmm := func() isa.Operand { return isa.Xmm(uint8(rnd.Intn(4))) }
	disp := func() int32 { return int32(rnd.Intn(64)) * 4 }
	var out []isa.Instr
	switch r & 7 {
	case 1:
		out = append(out, isa.I(isa.MOVSD, xmm(), isa.Mem(base(), disp())))
	case 2:
		g := gpr()
		out = append(out, isa.I(isa.MOVRI, isa.Gpr(g), isa.Imm(int64(rnd.Intn(16)))),
			isa.I(isa.MOVSD, xmm(), isa.MemIdx(base(), g, 8, disp())))
	case 3:
		g := gpr()
		out = append(out, isa.I(isa.MOVRI, isa.Gpr(g), isa.Imm(int64(math.Float64bits(rnd.NormFloat64())))),
			isa.I(isa.MOVQ, xmm(), isa.Gpr(g)))
	case 4:
		g := gpr()
		out = append(out, isa.I(isa.ADDR, isa.Gpr(g), isa.Gpr(gpr())),
			isa.I(isa.MOVSD, xmm(), isa.MemIdx(base(), g, 8, disp())))
	case 5:
		g := gpr()
		out = append(out, isa.I(isa.LOAD, isa.Gpr(g), isa.Mem(base(), disp())),
			isa.I(isa.ADDR, isa.Gpr(g), isa.Gpr(gpr())),
			isa.I(isa.MOVSD, xmm(), isa.MemIdx(base(), g, 8, disp())))
	case 6, 7:
		out = append(out, fuzzIndexAccess(v&^2, v, w)...)
	}
	for k := 0; k < max(1, int(r>>3&3)); k++ {
		out = append(out, isa.I(fuzzArith[rnd.Intn(len(fuzzArith))], xmm(), xmm()))
	}
	switch r >> 5 & 3 {
	case 1:
		out = append(out, isa.I(isa.MOVSD, isa.Mem(base(), disp()), xmm()))
	case 2:
		g := gpr()
		out = append(out, isa.I(isa.MOVRI, isa.Gpr(g), isa.Imm(int64(rnd.Intn(16)))),
			isa.I(isa.MOVSD, isa.MemIdx(base(), g, 8, disp()), xmm()))
	case 3:
		out = append(out, fuzzIndexAccess(w[1]|2, w[0], [3]byte{v, w[2], w[1]})...)
	}
	if r&0x80 != 0 {
		var mem []int
		for i := range out {
			if out[i].A.Kind == isa.KindMem || out[i].B.Kind == isa.KindMem {
				mem = append(mem, i)
			}
		}
		if len(mem) > 0 {
			in := &out[mem[int(w[2]&3)%len(mem)]]
			ref := &in.B.Mem
			if in.A.Kind == isa.KindMem {
				ref = &in.A.Mem
			}
			ref.Disp = int32(fuzzMemSize)
		}
	}
	return out
}

// fuzzFoldConds are the conditional branches a fuzzFold compare ends in.
var fuzzFoldConds = [...]isa.Op{isa.JE, isa.JNE, isa.JL, isa.JLE, isa.JG, isa.JGE, isa.JB, isa.JAE, isa.JA, isa.JBE}

// fuzzFold builds a compare the compiled tier folds into its block's
// conditional terminator, and the branch, from six fuzz bytes; skip is
// how many instructions the branch jumps over (forward only, so every
// program ends). r bit 0 picks the loop test LOAD; MOVRI; CMPR or the
// snippet flag test MOVQ; MOVRR; SHRI; CMPI, bits 1-4 the condition,
// bits 5-6 skip and bit 7, for the loop test, a LOAD past the end of
// memory. v and w pick the registers, constants and displacement; the
// flag test compares against the replacement flag unless w[1]'s top bit
// is set.
func fuzzFold(r, v byte, w [3]byte) (out []isa.Instr, skip int) {
	g, g2 := isa.Gpr(fuzzGPRs[v&7]), isa.Gpr(fuzzGPRs[v>>3&7])
	if r&1 == 0 {
		ref := isa.Mem(fuzzGPRs[v>>6], int32(w[0]&63)*4)
		if r&0x80 != 0 {
			ref.Mem.Disp = int32(fuzzMemSize)
		}
		out = []isa.Instr{
			isa.I(isa.LOAD, g, ref),
			isa.I(isa.MOVRI, g2, isa.Imm(int64(int8(w[1])))),
			isa.I(isa.CMPR, isa.Gpr(fuzzGPRs[w[2]&7]), isa.Gpr(fuzzGPRs[w[2]>>3&7])),
		}
	} else {
		flag := int64(isa.ReplacedFlag)
		if w[1]&0x80 != 0 {
			flag = int64(int8(w[1]))
		}
		out = []isa.Instr{
			isa.I(isa.MOVQ, g, isa.Xmm(w[0]&3)),
			isa.I(isa.MOVRR, g2, g),
			isa.I(isa.SHRI, g2, isa.Imm(int64(w[2]&63))),
			isa.I(isa.CMPI, g2, isa.Imm(flag)),
		}
	}
	return append(out, isa.I(fuzzFoldConds[int(r>>1&15)%len(fuzzFoldConds)], isa.Imm(0))), int(r >> 5 & 3)
}

// fuzzIndexAccess builds one index-access shape (matchIndex) from six
// fuzz bytes. r picks the form: bit 0 the 2-D shape, bit 1 the store,
// bits 2-3 T's adjust (none, ADDR, SUBR, none), bits 4-5 the 2-D column
// (LOAD, LOAD with ADDR or SUBR adjust, MOVRI), bit 6 an access indexed
// by rB instead of rA, bit 7 the XMM register. v picks rA (bits 0-2), rB
// (bits 3-5) and the base of T's LOAD (bits 6-7). w[0] holds the adjusts'
// constants, w[1] the row length, column constant and the column LOAD's
// base, w[2] rC, the access's base and its displacement. Every register
// comes from all of fuzzGPRs, so some instances alias in ways the
// matcher must reject and run unfused.
func fuzzIndexAccess(r, v byte, w [3]byte) []isa.Instr {
	gpr := func(b byte) uint8 { return fuzzGPRs[b&7] }
	base := func(b byte) uint8 { return fuzzGPRs[b&3] }
	rA, rB, rC := gpr(v), gpr(v>>3), gpr(w[2])
	k0, k1 := int64(int8(w[0]))>>4, int64(int8(w[0]<<4))>>4
	adjust := func(sel byte, d, s uint8, k int64) []isa.Instr {
		op := isa.ADDR
		switch sel & 3 {
		case 0, 3:
			return nil
		case 2:
			op = isa.SUBR
		}
		return []isa.Instr{isa.I(isa.MOVRI, isa.Gpr(s), isa.Imm(k)), isa.I(op, isa.Gpr(d), isa.Gpr(s))}
	}
	out := []isa.Instr{isa.I(isa.LOAD, isa.Gpr(rA), isa.Mem(base(v>>6), 8*int32(w[0]&3)))}
	out = append(out, adjust(r>>2, rA, rB, k0)...)
	if r&1 != 0 {
		out = append(out,
			isa.I(isa.MOVRI, isa.Gpr(rB), isa.Imm(int64(w[1]&7))),
			isa.I(isa.IMULR, isa.Gpr(rA), isa.Gpr(rB)))
		if r>>4&3 == 3 {
			out = append(out, isa.I(isa.MOVRI, isa.Gpr(rB), isa.Imm(int64(w[1]>>3&7))))
		} else {
			out = append(out, isa.I(isa.LOAD, isa.Gpr(rB), isa.Mem(base(w[1]>>6), 8*int32(w[1]>>3&3))))
			out = append(out, adjust(r>>4, rB, rC, k1)...)
		}
		out = append(out, isa.I(isa.ADDR, isa.Gpr(rA), isa.Gpr(rB)))
	}
	idx := rA
	if r&0x40 != 0 {
		idx = rB
	}
	ref, x := isa.MemIdx(base(w[2]>>3), idx, 8, int32(int8(w[2])>>5)*8), isa.Xmm(r>>7)
	if r&2 != 0 {
		return append(out, isa.I(isa.MOVSD, ref, x))
	}
	return append(out, isa.I(isa.MOVSD, x, ref))
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
