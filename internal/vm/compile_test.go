package vm

import (
	"errors"
	"testing"

	"fpmix/internal/isa"
	"fpmix/internal/prog"
)

// linked assembles instrs into a module and links it.
func linked(t *testing.T, instrs []isa.Instr) *Program {
	t.Helper()
	f := &prog.Func{Name: "main", Instrs: instrs}
	mod, err := prog.Build("t", []*prog.Func{f}, nil, prog.DataBase+1<<16, "main")
	if err != nil {
		t.Fatal(err)
	}
	lp, err := Link(mod)
	if err != nil {
		t.Fatal(err)
	}
	return lp
}

// linkedLoop builds a linked count-to-n loop with a real backward branch
// (same shape as inject_test's loopProgram, but linked).
func linkedLoop(t *testing.T, n int64) *Program {
	t.Helper()
	f := &prog.Func{Name: "main", Instrs: []isa.Instr{
		isa.I(isa.MOVRI, isa.Gpr(isa.RAX), isa.Imm(0)), // 0
		isa.I(isa.ADDI, isa.Gpr(isa.RAX), isa.Imm(1)),  // 1: loop head
		isa.I(isa.CMPI, isa.Gpr(isa.RAX), isa.Imm(n)),  // 2
		isa.I(isa.JL, isa.Imm(0)),                      // 3: patched below
		isa.I(isa.HALT),                                // 4
	}}
	mod, err := prog.Build("t", []*prog.Func{f}, nil, prog.DataBase+1<<16, "main")
	if err != nil {
		t.Fatal(err)
	}
	f.Instrs[3].A.Imm = int64(f.Instrs[1].Addr)
	lp, err := Link(mod)
	if err != nil {
		t.Fatal(err)
	}
	return lp
}

func TestCompiledTierSelection(t *testing.T) {
	lp := linked(t, []isa.Instr{isa.I(isa.NOP), isa.I(isa.HALT)})
	m := lp.NewMachine()
	if !m.compiledTier() {
		t.Fatal("clean linked machine should select the compiled tier")
	}
	m.NoCompile = true
	if m.compiledTier() {
		t.Fatal("NoCompile must route to the instrumented tier")
	}
	m.NoCompile = false

	m.InjectTrapAfter(3)
	if m.compiledTier() {
		t.Fatal("an armed injected trap must route to the instrumented tier")
	}
	m.ClearInjected()

	m.TrapUnreplaced = true
	if m.compiledTier() {
		t.Fatal("TrapUnreplaced must route to the instrumented tier")
	}
	m.TrapUnreplaced = false

	m.EnableShadow()
	if !m.compiledTier() {
		t.Fatal("shadow collection should select the compiled tier")
	}
	m.NoCompile = true
	if m.compiledTier() {
		t.Fatal("NoCompile must keep the per-step shadow reachable")
	}
	m.NoCompile = false

	um := mach(t, []isa.Instr{isa.I(isa.NOP), isa.I(isa.HALT)})
	if um.compiledTier() {
		t.Fatal("vm.New machines have no compiled stream")
	}
}

// TestCompiledProgramShape sanity-checks the block partition of a linked
// loop: the backward branch target starts a block, the compiled stream
// covers every instruction exactly once, and per-block costs sum to the
// per-instruction table.
func TestCompiledProgramShape(t *testing.T) {
	lp := linkedLoop(t, 5)
	c := lp.compiled
	if c == nil || len(c.blocks) == 0 {
		t.Fatal("no compiled stream")
	}
	covered := make([]int, len(lp.instrs))
	var cost uint64
	for i := range c.blocks {
		b := &c.blocks[i]
		if !c.leader[b.start] {
			t.Errorf("block %d starts at non-leader %d", i, b.start)
		}
		for j := b.start; j < b.start+b.n; j++ {
			covered[j]++
		}
		cost += b.cost
	}
	var want uint64
	for _, ci := range lp.costs {
		want += ci
	}
	if cost != want {
		t.Errorf("summed block cost %d != instruction cost table %d", cost, want)
	}
	for i, n := range covered {
		if n != 1 {
			t.Errorf("instruction %d covered by %d blocks", i, n)
		}
	}
	// The loop head is a branch target and must lead a block.
	if !c.leader[1] {
		t.Error("backward branch target is not a block leader")
	}
}

// TestInjectedTrapExactOnLinkedRun proves the acceptance requirement
// that chaos arming keeps exact semantics under the new Run: an armed
// trap automatically routes to the instrumented tier and fires at the
// exact step count and PC the step-at-a-time interpreter produces.
func TestInjectedTrapExactOnLinkedRun(t *testing.T) {
	lp := linkedLoop(t, 50)
	for _, after := range []uint64{1, 2, 7, 42, 97} {
		m := lp.NewMachine()
		m.InjectTrapAfter(after)
		err := m.Run()
		var f *Fault
		if !errors.As(err, &f) || f.Kind != FaultInjected {
			t.Fatalf("after=%d: got %v, want injected fault", after, err)
		}

		// Reference: the same trap on a manual Step loop.
		ref := lp.NewMachine()
		ref.InjectTrapAfter(after)
		var rerr error
		for !ref.Halted() {
			if rerr = ref.Step(); rerr != nil {
				break
			}
		}
		var rf *Fault
		if !errors.As(rerr, &rf) {
			t.Fatalf("after=%d: reference did not fault", after)
		}
		if *f != *rf {
			t.Errorf("after=%d: fault mismatch: %+v vs %+v", after, f, rf)
		}
		if m.Steps != ref.Steps || m.PC() != ref.PC() {
			t.Errorf("after=%d: steps/pc mismatch: %d/%#x vs %d/%#x",
				after, m.Steps, m.PC(), ref.Steps, ref.PC())
		}
	}
}

// TestInjectedTrapAtSiteOnLinkedRun covers the by-address arming used by
// the MPI chaos harness: the n-th execution of a chosen site faults at
// exactly that site.
func TestInjectedTrapAtSiteOnLinkedRun(t *testing.T) {
	lp := linkedLoop(t, 50)
	addr := lp.instrs[2].Addr // the CMPI inside the loop
	m := lp.NewMachine()
	m.InjectTrapAt(addr, 13)
	err := m.Run()
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultInjected {
		t.Fatalf("got %v, want injected fault", err)
	}
	if f.PC != addr || m.PC() != addr {
		t.Fatalf("trap at %#x, want %#x", f.PC, addr)
	}
	// 13th execution of the site: counts must show exactly 13.
	if got := m.Counts()[2]; got != 13 {
		t.Fatalf("site executed %d times at trap, want 13", got)
	}
}

// TestCompiledMaxStepsMidBlock expires budgets at every point of a run
// and checks the compiled tier faults at the same step and PC as the
// interpreter, including budgets landing inside fused blocks.
func TestCompiledMaxStepsMidBlock(t *testing.T) {
	lp := linkedLoop(t, 20)
	for max := uint64(1); max <= 85; max += 3 {
		a := lp.NewMachine()
		a.MaxSteps = max
		errA := a.Run()

		b := lp.NewMachine()
		b.NoCompile = true
		b.MaxSteps = max
		errB := b.Run()

		if (errA == nil) != (errB == nil) {
			t.Fatalf("max=%d: error mismatch: %v vs %v", max, errA, errB)
		}
		if errA != nil {
			fa, fb := errA.(*Fault), errB.(*Fault)
			if *fa != *fb {
				t.Errorf("max=%d: fault mismatch: %+v vs %+v", max, fa, fb)
			}
		}
		if a.Steps != b.Steps || a.PC() != b.PC() || a.Cycles != b.Cycles {
			t.Errorf("max=%d: state mismatch: steps %d/%d pc %#x/%#x cycles %d/%d",
				max, a.Steps, b.Steps, a.PC(), b.PC(), a.Cycles, b.Cycles)
		}
	}
}

// TestCompiledFallOffSegment checks the fall-off-the-code-segment fault
// is identical between tiers (PC of the last instruction, pcIdx past the
// end).
func TestCompiledFallOffSegment(t *testing.T) {
	lp := linked(t, []isa.Instr{
		isa.I(isa.MOVRI, isa.Gpr(isa.RAX), isa.Imm(7)),
		isa.I(isa.ADDI, isa.Gpr(isa.RAX), isa.Imm(1)),
	})
	a := lp.NewMachine()
	errA := a.Run()
	b := lp.NewMachine()
	b.NoCompile = true
	errB := b.Run()
	fa, okA := errA.(*Fault)
	fb, okB := errB.(*Fault)
	if !okA || !okB || fa.Kind != FaultBadPC {
		t.Fatalf("want bad-PC faults, got %v / %v", errA, errB)
	}
	if *fa != *fb {
		t.Fatalf("fault mismatch: %+v vs %+v", fa, fb)
	}
	if a.pcIdx != b.pcIdx || a.Steps != b.Steps {
		t.Fatalf("state mismatch: pcIdx %d/%d steps %d/%d", a.pcIdx, b.pcIdx, a.Steps, b.Steps)
	}
}
