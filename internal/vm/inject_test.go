package vm

import (
	"context"
	"errors"
	"testing"
	"time"

	"fpmix/internal/isa"
	"fpmix/internal/prog"
)

// loopProgram builds a long counted loop (no FP): it executes well over
// `iters` instructions before halting. It returns the machine and the
// address of the loop-head ADDI, which executes once per iteration.
func loopProgram(t *testing.T, iters int64) (*Machine, uint64) {
	t.Helper()
	f := &prog.Func{Name: "main", Instrs: []isa.Instr{
		isa.I(isa.MOVRI, isa.Gpr(isa.RAX), isa.Imm(0)),
		isa.I(isa.ADDI, isa.Gpr(isa.RAX), isa.Imm(1)), // loop head
		isa.I(isa.CMPI, isa.Gpr(isa.RAX), isa.Imm(iters)),
		isa.I(isa.JL, isa.Imm(0)), // patched to the loop head
		isa.I(isa.SYSCALL, isa.Imm(isa.SysOutI64)),
		isa.I(isa.HALT),
	}}
	mod, err := prog.Build("loop", []*prog.Func{f}, nil, prog.DataBase+4096, "main")
	if err != nil {
		t.Fatal(err)
	}
	head := f.Instrs[1].Addr
	f.Instrs[3].A.Imm = int64(head)
	m, err := New(mod)
	if err != nil {
		t.Fatal(err)
	}
	return m, head
}

func TestInjectTrapAfterSteps(t *testing.T) {
	m, _ := loopProgram(t, 1000)
	m.InjectTrapAfter(100)
	err := m.Run()
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultInjected {
		t.Fatalf("err = %v, want FaultInjected", err)
	}
	if m.Steps != 100 {
		t.Errorf("trap fired at step %d, want exactly 100", m.Steps)
	}
	if f.PC == 0 {
		t.Error("injected fault carries no PC")
	}
}

func TestInjectTrapDisarmedByClearAndReset(t *testing.T) {
	m, _ := loopProgram(t, 50)
	m.InjectTrapAfter(10)
	m.ClearInjected()
	if err := m.Run(); err != nil {
		t.Fatalf("cleared trap still fired: %v", err)
	}
	// Reset must also disarm: a pooled machine re-armed for one
	// evaluation must not trap on the next.
	m2, _ := loopProgram(t, 50)
	m2.InjectTrapAfter(10)
	if err := m2.Reset(m2.prog); err != nil {
		t.Fatal(err)
	}
	if err := m2.Run(); err != nil {
		t.Fatalf("trap survived Reset: %v", err)
	}
}

func TestRunContextCancel(t *testing.T) {
	m, _ := loopProgram(t, 1<<40)
	m.MaxSteps = 1 << 50
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	err := m.RunContext(ctx)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultCancelled {
		t.Fatalf("err = %v, want FaultCancelled", err)
	}
	if m.Steps == 0 {
		t.Error("cancelled before executing anything")
	}
}

func TestRunContextDeadline(t *testing.T) {
	m, _ := loopProgram(t, 1<<40)
	m.MaxSteps = 1 << 50
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := m.RunContext(ctx)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultCancelled {
		t.Fatalf("err = %v, want FaultCancelled", err)
	}
	if wall := time.Since(start); wall > 5*time.Second {
		t.Errorf("deadline took %v to take effect", wall)
	}
}

func TestRunContextCompletesNormally(t *testing.T) {
	m, _ := loopProgram(t, 100)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := m.RunContext(ctx); err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if !m.Halted() {
		t.Error("program did not halt")
	}
	// A background (never-cancellable) context takes the plain Run path.
	m2, _ := loopProgram(t, 100)
	if err := m2.RunContext(context.Background()); err != nil {
		t.Fatalf("RunContext(Background): %v", err)
	}
}

func TestRunContextAlreadyCancelled(t *testing.T) {
	m, _ := loopProgram(t, 100)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := m.RunContext(ctx)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultCancelled {
		t.Fatalf("err = %v, want FaultCancelled", err)
	}
	if m.Steps != 0 {
		t.Errorf("executed %d steps under a cancelled context", m.Steps)
	}
}
