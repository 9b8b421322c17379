package vm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fpmix/internal/config"
	"fpmix/internal/hl"
	"fpmix/internal/isa"
	"fpmix/internal/prog"
	"fpmix/internal/replace"
)

// Pattern superinstructions must be invisible: a compiled run through
// fused ops leaves the machine the per-step interpreter leaves, down to
// the constituents that executed before a fault. These tests place an
// out-of-bounds memory operand at every fallible constituent of every
// pattern, expire step budgets and enter blocks mid-way around fused ops,
// and compare whole machines (plus dirty pages) against NoCompile runs.

// fusePatternNames names each pattern in test output.
var fusePatternNames = [numFusePatterns]string{
	fuseNone:             "none",
	fuseLoadImmMul:       "load+movri+imulr",
	fuseLoadImmAdd:       "load+movri+addr",
	fuseLoadImmSub:       "load+movri+subr",
	fuseLoadImmCmp:       "load+movri+cmpr",
	fuseLoadAddLoadSD:    "load+addr+movsd-load",
	fuseLoadImmAddLoadSD: "load+movri+addr+movsd-load",
	fuseAddLoadSD:        "addr+movsd-load",
	fuseImmLoadSD:        "movri+movsd-load",
	fuseLoadLoadSD:       "load+movsd-load",
	fuseLoadIncStore:     "load+addi+store",
	fuseLoadAddSD:        "movsd-load+addsd",
	fuseLoadSubSD:        "movsd-load+subsd",
	fuseLoadMulSD:        "movsd-load+mulsd",
	fuseConstSD:          "movri+movq-xmm",
	fuseFlagTest:         "movq-gpr+movrr+shri+cmpi",
	fuseStamp:            "movq-gpr+movri+andr+movri+orr+movq-xmm",
}

// fuseCase is one instance of a pattern: build returns its constituents
// with the first memory operand based on register bA and the second on
// bB; fallible lists the constituents with memory operands, in order.
type fuseCase struct {
	p        fusePattern
	build    func(bA, bB uint8) []isa.Instr
	fallible []int
}

var fuseCases = []fuseCase{
	{fuseLoadImmMul, func(bA, _ uint8) []isa.Instr { return loadImm(isa.IMULR, bA) }, []int{0}},
	{fuseLoadImmAdd, func(bA, _ uint8) []isa.Instr { return loadImm(isa.ADDR, bA) }, []int{0}},
	{fuseLoadImmSub, func(bA, _ uint8) []isa.Instr { return loadImm(isa.SUBR, bA) }, []int{0}},
	{fuseLoadImmCmp, func(bA, _ uint8) []isa.Instr { return loadImm(isa.CMPR, bA) }, []int{0}},
	{fuseLoadAddLoadSD, func(bA, bB uint8) []isa.Instr {
		return []isa.Instr{
			isa.I(isa.LOAD, isa.Gpr(isa.RAX), isa.Mem(bA, 0)),
			isa.I(isa.ADDR, isa.Gpr(isa.RAX), isa.Gpr(isa.RCX)),
			isa.I(isa.MOVSD, isa.Xmm(1), isa.MemIdx(bB, isa.RAX, 8, 16)),
		}
	}, []int{0, 2}},
	{fuseLoadImmAddLoadSD, func(bA, bB uint8) []isa.Instr {
		return []isa.Instr{
			isa.I(isa.LOAD, isa.Gpr(isa.RAX), isa.Mem(bA, 8)),
			isa.I(isa.MOVRI, isa.Gpr(isa.RCX), isa.Imm(7)),
			isa.I(isa.ADDR, isa.Gpr(isa.RAX), isa.Gpr(isa.RCX)),
			isa.I(isa.MOVSD, isa.Xmm(1), isa.MemIdx(bB, isa.RAX, 8, 16)),
		}
	}, []int{0, 3}},
	{fuseAddLoadSD, func(bA, _ uint8) []isa.Instr {
		return []isa.Instr{
			isa.I(isa.ADDR, isa.Gpr(isa.RAX), isa.Gpr(isa.RCX)),
			isa.I(isa.MOVSD, isa.Xmm(1), isa.MemIdx(bA, isa.RAX, 8, 16)),
		}
	}, []int{1}},
	{fuseImmLoadSD, func(bA, _ uint8) []isa.Instr {
		return []isa.Instr{
			isa.I(isa.MOVRI, isa.Gpr(isa.RSI), isa.Imm(4)),
			isa.I(isa.MOVSD, isa.Xmm(1), isa.MemIdx(bA, isa.RSI, 8, 32)),
		}
	}, []int{1}},
	{fuseLoadLoadSD, func(bA, bB uint8) []isa.Instr {
		return []isa.Instr{
			isa.I(isa.LOAD, isa.Gpr(isa.RDX), isa.Mem(bA, 0)),
			isa.I(isa.MOVSD, isa.Xmm(2), isa.MemIdx(bB, isa.RDX, 8, 32)),
		}
	}, []int{0, 1}},
	{fuseLoadIncStore, func(bA, bB uint8) []isa.Instr {
		return []isa.Instr{
			isa.I(isa.LOAD, isa.Gpr(isa.RDX), isa.Mem(bA, 24)),
			isa.I(isa.ADDI, isa.Gpr(isa.RDX), isa.Imm(1)),
			isa.I(isa.STORE, isa.Mem(bB, 24), isa.Gpr(isa.RDX)),
		}
	}, []int{0, 2}},
	{fuseLoadAddSD, func(bA, _ uint8) []isa.Instr { return loadArith(isa.ADDSD, bA) }, []int{0}},
	{fuseLoadSubSD, func(bA, _ uint8) []isa.Instr { return loadArith(isa.SUBSD, bA) }, []int{0}},
	{fuseLoadMulSD, func(bA, _ uint8) []isa.Instr { return loadArith(isa.MULSD, bA) }, []int{0}},
	{fuseConstSD, func(_, _ uint8) []isa.Instr {
		return []isa.Instr{
			isa.I(isa.MOVRI, isa.Gpr(isa.RSI), isa.Imm(int64(math.Float64bits(2.5)))),
			isa.I(isa.MOVQ, isa.Xmm(3), isa.Gpr(isa.RSI)),
		}
	}, nil},
	{fuseFlagTest, func(_, _ uint8) []isa.Instr {
		return []isa.Instr{
			isa.I(isa.MOVQ, isa.Gpr(isa.R15), isa.Xmm(1)),
			isa.I(isa.MOVRR, isa.Gpr(isa.R14), isa.Gpr(isa.R15)),
			isa.I(isa.SHRI, isa.Gpr(isa.R14), isa.Imm(32)),
			isa.I(isa.CMPI, isa.Gpr(isa.R14), isa.Imm(int64(isa.ReplacedFlag))),
		}
	}, nil},
	{fuseStamp, func(_, _ uint8) []isa.Instr {
		return []isa.Instr{
			isa.I(isa.MOVQ, isa.Gpr(isa.R15), isa.Xmm(1)),
			isa.I(isa.MOVRI, isa.Gpr(isa.R14), isa.Imm(0xFFFFFFFF)),
			isa.I(isa.ANDR, isa.Gpr(isa.R15), isa.Gpr(isa.R14)),
			isa.I(isa.MOVRI, isa.Gpr(isa.R14), isa.Imm(int64(uint64(isa.ReplacedFlag)<<32))),
			isa.I(isa.ORR, isa.Gpr(isa.R15), isa.Gpr(isa.R14)),
			isa.I(isa.MOVQ, isa.Xmm(1), isa.Gpr(isa.R15)),
		}
	}, nil},
}

func loadImm(op isa.Op, bA uint8) []isa.Instr {
	return []isa.Instr{
		isa.I(isa.LOAD, isa.Gpr(isa.RAX), isa.Mem(bA, 8)),
		isa.I(isa.MOVRI, isa.Gpr(isa.RCX), isa.Imm(7)),
		isa.I(op, isa.Gpr(isa.RAX), isa.Gpr(isa.RCX)),
	}
}

func loadArith(op isa.Op, bA uint8) []isa.Instr {
	return []isa.Instr{
		isa.I(isa.MOVSD, isa.Xmm(2), isa.Mem(bA, 32)),
		isa.I(op, isa.Xmm(1), isa.Xmm(2)),
	}
}

// fuseData is the data segment of the fault-parity programs: small
// integers at offsets 0..31 (array indices) and doubles after them.
func fuseData() []byte {
	d := make([]byte, 256)
	binary.LittleEndian.PutUint64(d[0:], 1)
	binary.LittleEndian.PutUint64(d[8:], 5)
	binary.LittleEndian.PutUint64(d[24:], 41)
	for off := 32; off+8 <= len(d); off += 8 {
		binary.LittleEndian.PutUint64(d[off:], math.Float64bits(float64(off)/16+0.125))
	}
	return d
}

// seedMachine gives m a deterministic register file: the base registers
// R8..R11 point into the data segment, the rest hold small integers and
// doubles (xmm1 a flagged single, so the flag tests see both outcomes
// across cases).
func seedMachine(m *Machine, oob map[uint8]bool) {
	for r := range m.GPR {
		if r != int(isa.RSP) {
			m.GPR[r] = uint64(r + 2)
		}
	}
	for _, r := range []uint8{isa.R8, isa.R9, isa.R10, isa.R11} {
		m.GPR[r] = prog.DataBase
		if oob[r] {
			m.GPR[r] = 1 << 40
		}
	}
	for x := range m.XMM {
		m.XMM[x] = [2]uint64{math.Float64bits(float64(x) + 0.5), uint64(x) * 3}
	}
	m.XMM[1][0] = uint64(isa.ReplacedFlag)<<32 | uint64(math.Float32bits(1.75))
}

// bodySpans returns the instruction span of every body micro-op of b.
func bodySpans(c *compiled, b *block) []int32 {
	spans := make([]int32, len(b.body))
	for j := range spans {
		next := b.bodyEnd()
		if j+1 < len(spans) {
			next = c.opStart(b, int32(j+1))
		}
		spans[j] = next - c.opStart(b, int32(j))
	}
	return spans
}

// hasFused reports whether b's body holds a superinstruction.
func hasFused(c *compiled, b *block) bool {
	return slices.ContainsFunc(bodySpans(c, b), func(n int32) bool { return n > 1 })
}

// sameDirtyPages compares the dirty-page sets of two tracked machines.
func sameDirtyPages(t *testing.T, label string, a, b *Machine) {
	t.Helper()
	if !slices.Equal(a.track.dirty, b.track.dirty) {
		t.Errorf("%s: dirty pages differ", label)
	}
}

func TestFusedFaultParity(t *testing.T) {
	for _, fc := range fuseCases {
		for _, halt := range []bool{true, false} {
			fusedFaultParity(t, fc, halt)
		}
	}
}

// fusedFaultParity runs one case's program, ended by HALT or running off
// the code segment, clean and faulting at each fallible constituent.
func fusedFaultParity(t *testing.T, fc fuseCase, halt bool) {
	name := fmt.Sprintf("%s (halt %v)", fusePatternNames[fc.p], halt)
	// Two instances in one block, each after a NOP, so the fused ops sit
	// at body indices 1 and 3 with instruction offsets 1 and n+2.
	first := fc.build(isa.R8, isa.R9)
	second := fc.build(isa.R10, isa.R11)
	n := len(first)
	instrs := []isa.Instr{isa.I(isa.NOP)}
	instrs = append(instrs, first...)
	instrs = append(instrs, isa.I(isa.NOP))
	instrs = append(instrs, second...)
	if halt {
		instrs = append(instrs, isa.I(isa.HALT))
	}
	f := &prog.Func{Name: "main", Instrs: instrs}
	mod, err := prog.Build("fuse", []*prog.Func{f}, fuseData(), prog.DataBase+4096, "main")
	if err != nil {
		t.Fatal(err)
	}
	lp, err := Link(mod)
	if err != nil {
		t.Fatal(err)
	}
	b := &lp.compiled.blocks[0]
	if got, want := bodySpans(lp.compiled, b), []int32{1, int32(n), 1, int32(n)}; !slices.Equal(got, want) {
		t.Fatalf("%s: body spans %v, want %v", name, got, want)
	}

	// Scenario -1 runs clean; the others fault at one constituent of one
	// instance.
	type scenario struct {
		inst, k int
		oob     uint8
	}
	scenarios := []scenario{{inst: -1}}
	for inst, bases := range [][2]uint8{{isa.R8, isa.R9}, {isa.R10, isa.R11}} {
		for mi, k := range fc.fallible {
			scenarios = append(scenarios, scenario{inst, k, bases[mi]})
		}
	}
	for _, sc := range scenarios {
		label := fmt.Sprintf("%s: instance %d constituent %d", name, sc.inst, sc.k)
		oob := map[uint8]bool{sc.oob: sc.inst >= 0}
		run := func(noCompile bool) engineResult {
			m := lp.NewMachine()
			m.NoCompile = noCompile
			m.TrackDirtyPages()
			seedMachine(m, oob)
			return engineResult{m, m.Run()}
		}
		compiled, interp := run(false), run(true)
		diffMachines(t, label, compiled, interp)
		sameDirtyPages(t, label, compiled.m, interp.m)
		if compiled.m.faultOff != 0 {
			t.Errorf("%s: faultOff left at %d", label, compiled.m.faultOff)
		}
		var f *Fault
		if sc.inst < 0 {
			if halt && (compiled.err != nil || !compiled.m.Halted()) {
				t.Errorf("%s: clean run ended with %v", label, compiled.err)
			}
			if !halt && (!errors.As(compiled.err, &f) || f.Kind != FaultBadPC) {
				t.Errorf("%s: clean run ended with %v, want falling off the code", label, compiled.err)
			}
			continue
		}
		if !errors.As(compiled.err, &f) || f.Kind != FaultMemOOB {
			t.Fatalf("%s: got %v, want a memory fault", label, compiled.err)
		}
		idx := 1 + sc.k
		if sc.inst == 1 {
			idx += n + 1
		}
		if want := lp.instrs[idx].Addr; f.PC != want || compiled.m.PC() != want {
			t.Errorf("%s: fault at %#x (pc %#x), want %#x", label, f.PC, compiled.m.PC(), want)
		}
	}
}

// fuseLoopProgram is a small kernel in the shape of hl's NAS codes: a
// doubly nested loop over a row-major 2-D array with index arithmetic,
// loads feeding FP operations and FP constants — every kernel-code
// pattern fires in it.
func fuseLoopProgram(t *testing.T) *prog.Module {
	t.Helper()
	const n = 5
	p := hl.New("fuseloop", hl.ModeF64)
	vals := make([]float64, n*n)
	for i := range vals {
		vals[i] = float64(i%7) + 0.25
	}
	a := p.ArrayInit("a", vals)
	s := p.ScalarInit("s", 1)
	i, j := p.Int("i"), p.Int("j")
	at := func(r, c hl.IExpr) hl.Expr { return hl.At(a, hl.IAdd(hl.IMul(r, hl.IConst(n)), c)) }
	f := p.Func("main")
	f.For(i, hl.IConst(0), hl.IConst(n), func() {
		f.For(j, hl.IConst(0), hl.IConst(n), func() {
			f.Set(s, hl.Add(hl.Load(s), hl.Mul(at(hl.ILoad(i), hl.ILoad(j)), hl.Const(0.5))))
			f.Store(a, hl.IAdd(hl.IMul(hl.ILoad(j), hl.IConst(n)), hl.ILoad(i)),
				hl.Sub(at(hl.ILoad(j), hl.ILoad(i)), hl.Load(s)))
			f.Set(s, hl.Sub(hl.Load(s), at(hl.ISub(hl.ILoad(i), hl.IConst(0)), hl.ILoad(j))))
			f.Set(s, hl.Add(hl.Mul(hl.Const(0.75), hl.Load(s)), hl.Load(s)))
			f.Set(s, hl.Sub(hl.Load(s), at(hl.IAdd(hl.ILoad(j), hl.IConst(0)), hl.ILoad(i))))
			f.Set(s, hl.Add(hl.Mul(hl.At(a, hl.IConst(3)), hl.At(a, hl.ILoad(j))),
				hl.At(a, hl.IAdd(hl.ILoad(i), hl.IConst(2)))))
			f.Set(s, hl.Mul(hl.Load(s), at(hl.ILoad(i), hl.IMul(hl.ILoad(j), hl.IConst(1)))))
		})
	})
	f.Out(hl.Load(s))
	f.Halt()
	mod, err := p.Build("main")
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// fuseLoopVariants returns the loop kernel as built and wrapped all
// double and all single, so the snippet patterns run inside loops too.
func fuseLoopVariants(t *testing.T) map[string]*prog.Module {
	t.Helper()
	mod := fuseLoopProgram(t)
	out := map[string]*prog.Module{"base": mod}
	for _, p := range []config.Precision{config.Double, config.Single} {
		c, err := config.FromModule(mod)
		if err != nil {
			t.Fatal(err)
		}
		c.SetAll(p)
		inst, err := replace.Instrument(mod, c, replace.InstrumentOptions{})
		if err != nil {
			t.Fatal(err)
		}
		out[p.String()] = inst
	}
	return out
}

// firedPatterns reports the patterns of the fused ops in blocks a
// finished compiled run executed.
func firedPatterns(lp *Program, counts []uint64) map[fusePattern]bool {
	fired := map[fusePattern]bool{}
	c := lp.compiled
	for bi := range c.blocks {
		b := &c.blocks[bi]
		if counts[b.start] == 0 {
			continue
		}
		for j, span := range bodySpans(c, b) {
			if span > 1 {
				fired[matchFuse(lp.instrs, int(c.opStart(b, int32(j))))] = true
			}
		}
	}
	return fired
}

func TestFusedLoopBudgetAndMidBlockEntry(t *testing.T) {
	fired := map[fusePattern]bool{}
	for name, mod := range fuseLoopVariants(t) {
		lp, err := Link(mod)
		if err != nil {
			t.Fatal(err)
		}
		full := lp.NewMachine()
		if err := full.Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for p := range firedPatterns(lp, full.Counts()) {
			fired[p] = true
		}

		// Budgets expiring at (nearly) every step of the first blocks and
		// sparsely through the rest of the run.
		r := rand.New(rand.NewSource(14))
		budgets := []uint64{}
		for max := uint64(1); max <= 120; max++ {
			budgets = append(budgets, max)
		}
		for k := 0; k < 40; k++ {
			budgets = append(budgets, 1+uint64(r.Int63n(int64(full.Steps))))
		}
		for _, max := range budgets {
			run := func(noCompile bool) engineResult {
				m := lp.NewMachine()
				m.NoCompile = noCompile
				m.MaxSteps = max
				m.TrackDirtyPages()
				return engineResult{m, m.Run()}
			}
			a, b := run(false), run(true)
			label := fmt.Sprintf("%s: max=%d", name, max)
			diffMachines(t, label, a, b)
			sameDirtyPages(t, label, a.m, b.m)
		}

		// Mid-block entry: partial Steps before Run land inside blocks
		// (and inside fused spans) before the compiled tier takes over.
		for pre := 0; pre < 80; pre++ {
			run := func(noCompile bool) engineResult {
				m := lp.NewMachine()
				m.NoCompile = noCompile
				for s := 0; s < pre; s++ {
					if err := m.Step(); err != nil {
						t.Fatal(err)
					}
				}
				return engineResult{m, m.Run()}
			}
			diffMachines(t, fmt.Sprintf("%s: pre=%d", name, pre), run(false), run(true))
		}
		if t.Failed() {
			t.FailNow()
		}
	}
	for p := fuseNone + 1; p < numFusePatterns; p++ {
		if !fired[p] {
			t.Errorf("pattern %s never fired in the loop kernel", fusePatternNames[p])
		}
	}
}

// TestFusePatternMatching pins matchFuse: each case's constituents match
// exactly its own pattern, and a proper prefix of them matches at most a
// pattern no longer than the prefix.
func TestFusePatternMatching(t *testing.T) {
	for _, fc := range fuseCases {
		if fusePatternNames[fc.p] == "" {
			t.Errorf("pattern %d has no name", fc.p)
		}
		c := fc.build(isa.R8, isa.R9)
		if got := matchFuse(c, 0); got != fc.p {
			t.Errorf("%s: matched %s", fusePatternNames[fc.p], fusePatternNames[got])
		}
		if int(fusePatternLen[fc.p]) != len(c) {
			t.Errorf("%s: length %d, constituents %d", fusePatternNames[fc.p], fusePatternLen[fc.p], len(c))
		}
		for k := 1; k < len(c); k++ {
			if got := matchFuse(c[:k], 0); got != fuseNone && int(fusePatternLen[got]) > k {
				t.Errorf("%s: prefix of %d matched %s", fusePatternNames[fc.p], k, fusePatternNames[got])
			}
		}
	}
	if len(fuseCases) != int(numFusePatterns)-1 {
		t.Errorf("%d fault-parity cases for %d patterns", len(fuseCases), numFusePatterns-1)
	}
}

// TestFusedNeverSpansLeader puts a branch target inside a pattern: the
// loop re-enters at the MOVRI of LOAD; MOVRI; IMULR, so the block before
// it must run the LOAD alone, and the loop block fuses nothing across
// its own start.
func TestFusedNeverSpansLeader(t *testing.T) {
	f := &prog.Func{Name: "main", Instrs: []isa.Instr{
		isa.I(isa.LOAD, isa.Gpr(isa.RAX), isa.Mem(isa.R8, 8)), // 0
		isa.I(isa.MOVRI, isa.Gpr(isa.RCX), isa.Imm(7)),        // 1: loop head
		isa.I(isa.IMULR, isa.Gpr(isa.RAX), isa.Gpr(isa.RCX)),  // 2
		isa.I(isa.ADDI, isa.Gpr(isa.RBX), isa.Imm(1)),         // 3
		isa.I(isa.CMPI, isa.Gpr(isa.RBX), isa.Imm(3)),         // 4
		isa.I(isa.JL, isa.Imm(0)),                             // 5: patched below
		isa.I(isa.HALT),                                       // 6
	}}
	mod, err := prog.Build("leader", []*prog.Func{f}, fuseData(), prog.DataBase+4096, "main")
	if err != nil {
		t.Fatal(err)
	}
	f.Instrs[5].A.Imm = int64(f.Instrs[1].Addr)
	lp, err := Link(mod)
	if err != nil {
		t.Fatal(err)
	}
	for bi := range lp.compiled.blocks {
		if b := &lp.compiled.blocks[bi]; hasFused(lp.compiled, b) {
			t.Errorf("block at %d holds a fused op %v", b.start, bodySpans(lp.compiled, b))
		}
	}
	run := func(noCompile bool) engineResult {
		m := lp.NewMachine()
		m.NoCompile = noCompile
		seedMachine(m, nil)
		m.GPR[isa.RBX] = 0
		return engineResult{m, m.Run()}
	}
	diffMachines(t, "leader inside a pattern", run(false), run(true))
}
