package vm

import (
	"fmt"
	"math"
	"testing"

	"fpmix/internal/config"
	"fpmix/internal/isa"
	"fpmix/internal/prog"
)

// Guards must be invisible too: a diamond compiled into one micro-op
// leaves the machine the per-step interpreter leaves, whichever way its
// flag test goes, wherever a budget expires or a run enters, and a
// diamond anything else enters stays unguarded.

// guardArms are the arms a diamond may guard, each with the branch the
// snippet compiler puts before it (JNE over an upcast, JE over a
// downcast), plus a lane-1 downcast too long for the match window.
var guardArms = map[string]struct {
	jcc     isa.Op
	arm     []isa.Instr
	guarded bool
}{
	"upcast lane 0": {isa.JNE, []isa.Instr{isa.I(isa.CVTSS2SD, isa.Xmm(1), isa.Xmm(1))}, true},
	"downcast lane 0": {isa.JE, append([]isa.Instr{isa.I(isa.CVTSD2SS, isa.Xmm(1), isa.Xmm(1))},
		guardStamp(isa.MOVQ)...), true},
	"upcast lane 1":   {isa.JNE, guardLane1(isa.CVTSS2SD), true},
	"downcast lane 1": {isa.JE, append(guardLane1(isa.CVTSD2SS), guardStamp(isa.MOVHQ)...), false},
}

// guardStamp is the snippet's stamp of xmm1's lane (mov: MOVQ for lane
// 0, MOVHQ for lane 1).
func guardStamp(mov isa.Op) []isa.Instr {
	return []isa.Instr{
		isa.I(mov, isa.Gpr(isa.R15), isa.Xmm(1)),
		isa.I(isa.MOVRI, isa.Gpr(isa.R14), isa.Imm(0xFFFFFFFF)),
		isa.I(isa.ANDR, isa.Gpr(isa.R15), isa.Gpr(isa.R14)),
		isa.I(isa.MOVRI, isa.Gpr(isa.R14), isa.Imm(int64(uint64(isa.ReplacedFlag)<<32))),
		isa.I(isa.ORR, isa.Gpr(isa.R15), isa.Gpr(isa.R14)),
		isa.I(mov, isa.Xmm(1), isa.Gpr(isa.R15)),
	}
}

// guardLane1 converts xmm1's lane 1 through the conversion scratch.
func guardLane1(cvt isa.Op) []isa.Instr {
	return []isa.Instr{
		isa.I(isa.MOVHQ, isa.Gpr(isa.R15), isa.Xmm(1)),
		isa.I(isa.MOVQ, isa.Xmm(15), isa.Gpr(isa.R15)),
		isa.I(cvt, isa.Xmm(15), isa.Xmm(15)),
		isa.I(isa.MOVQ, isa.Gpr(isa.R15), isa.Xmm(15)),
		isa.I(isa.MOVHQ, isa.Xmm(1), isa.Gpr(isa.R15)),
	}
}

// guardProgram is a NOP, the diamond (head at 1) over arm, a join that
// uses xmm1, and, when stray >= 0, a never-taken branch to instruction
// stray after it. It returns the program and the join's index.
func guardProgram(t *testing.T, jcc isa.Op, arm []isa.Instr, stray int) (*Program, int) {
	t.Helper()
	instrs := []isa.Instr{
		isa.I(isa.NOP),
		isa.I(isa.MOVQ, isa.Gpr(isa.R15), isa.Xmm(1)),
		isa.I(isa.MOVRR, isa.Gpr(isa.R14), isa.Gpr(isa.R15)),
		isa.I(isa.SHRI, isa.Gpr(isa.R14), isa.Imm(32)),
		isa.I(isa.CMPI, isa.Gpr(isa.R14), isa.Imm(int64(isa.ReplacedFlag))),
		isa.I(jcc, isa.Imm(0)),
	}
	instrs = append(instrs, arm...)
	join := len(instrs)
	instrs = append(instrs,
		isa.I(isa.MULSD, isa.Xmm(0), isa.Xmm(1)),
		isa.I(isa.ADDI, isa.Gpr(isa.RBX), isa.Imm(1)))
	if stray >= 0 {
		instrs = append(instrs, isa.I(isa.CMPI, isa.Gpr(isa.RBX), isa.Imm(-1)), isa.I(isa.JE, isa.Imm(0)))
	}
	instrs = append(instrs, isa.I(isa.HALT))
	f := &prog.Func{Name: "main", Instrs: instrs}
	mod, err := prog.Build("guard", []*prog.Func{f}, fuseData(), prog.DataBase+4096, "main")
	if err != nil {
		t.Fatal(err)
	}
	f.Instrs[guardArm].A.Imm = int64(f.Instrs[join].Addr)
	if stray >= 0 {
		f.Instrs[len(instrs)-2].A.Imm = int64(f.Instrs[stray].Addr)
	}
	lp, err := Link(mod)
	if err != nil {
		t.Fatal(err)
	}
	return lp, join
}

// TestGuardLegalityAndParity compiles each arm as a diamond, alone and
// with a stray branch into each instruction from its head to its join,
// and with each of those instructions pinned as a leader. The diamond is
// guarded exactly when its arm fits the match window and nothing but its
// own branch enters (head, join]; either way both tiers agree with xmm1
// flagged and not, under every step budget and from every mid-run entry,
// with a stop at every instruction, and the census counts every step.
func TestGuardLegalityAndParity(t *testing.T) {
	for name, a := range guardArms {
		_, join := guardProgram(t, a.jcc, a.arm, -1)
		for stray := -1; stray <= join; stray++ {
			lp, _ := guardProgram(t, a.jcc, a.arm, stray)
			want := a.guarded && (stray < 2 || stray > join)
			if got := len(lp.compiled.arms) == 1; got != want {
				t.Errorf("%s, stray branch to %d: guarded %v, want %v", name, stray, got, want)
			}
			guardParity(t, fmt.Sprintf("%s, stray branch to %d", name, stray), lp)
		}
		lp, _ := guardProgram(t, a.jcc, a.arm, -1)
		for pin := 1; pin <= join; pin++ {
			ops, fused := compileFrag(lp.instrs, false)
			c := compileProgramWith(nil, lp, ops, fused, []int32{int32(pin)})
			if got, want := len(c.arms) == 1, a.guarded && pin < 2; got != want {
				t.Errorf("%s, leader pinned at %d: guarded %v, want %v", name, pin, got, want)
			}
		}
	}
}

// guardParity runs lp on both tiers from every seed, budget, entry and
// stop, comparing machines.
func guardParity(t *testing.T, label string, lp *Program) {
	t.Helper()
	n := uint64(len(lp.instrs))
	for _, flagged := range []bool{false, true} {
		seed := func(m *Machine) {
			seedMachine(m, nil)
			m.XMM[1] = [2]uint64{math.Float64bits(2.5), math.Float64bits(-0.75)}
			if flagged {
				f := uint64(isa.ReplacedFlag) << 32
				m.XMM[1] = [2]uint64{f | uint64(math.Float32bits(1.75)), f | uint64(math.Float32bits(-3))}
			}
		}
		// run finishes a machine with budget max after pre Steps, with a
		// stop armed at instruction stop (none when negative).
		run := func(noCompile bool, max uint64, pre, stop int) engineResult {
			m := lp.NewMachine()
			m.NoCompile = noCompile
			m.MaxSteps = max
			seed(m)
			for s := 0; s < pre; s++ {
				if err := m.Step(); err != nil {
					t.Fatal(err)
				}
			}
			if stop >= 0 {
				m.StopAt(lp.instrs[stop].Addr)
			}
			before := ReadCensus()
			steps := m.Steps
			err := m.Run()
			if after := ReadCensus(); !noCompile && after.Steps-before.Steps != m.Steps-steps {
				t.Errorf("%s: census counted %d steps of a %d-step run", label, after.Steps-before.Steps, m.Steps-steps)
			}
			return engineResult{m, err}
		}
		for max := uint64(1); max <= n; max++ {
			l := fmt.Sprintf("%s, flagged %v, max %d", label, flagged, max)
			diffMachines(t, l, run(false, max, 0, -1), run(true, max, 0, -1))
		}
		for pre := 0; pre < int(n); pre++ {
			l := fmt.Sprintf("%s, flagged %v, entry %d", label, flagged, pre)
			diffMachines(t, l, run(false, 0, pre, -1), run(true, 0, pre, -1))
			a, b := run(false, 0, 0, pre), run(true, 0, 0, pre)
			sa, okA := a.err.(*Stopped)
			sb, okB := b.err.(*Stopped)
			if okA != okB || okA && *sa != *sb {
				t.Errorf("%s, stop: %v vs %v", l, a.err, b.err)
			}
			if okA && okB {
				a.err, b.err = nil, nil
			}
			diffMachines(t, l+", stop", a, b)
		}
	}
}

// TestGuardStrayLoopRunsFold pins the loop kernel's stray-branch
// variant: its diamond stays unguarded, so the standalone flag-test fold
// ends a block and runs, while the wrapped loop kernel guards its
// diamonds.
func TestGuardStrayLoopRunsFold(t *testing.T) {
	progs := fuseLoopPrograms(t)
	stray := progs["stray"]
	if len(stray.compiled.arms) != 0 {
		t.Fatal("the stray branch's diamond is guarded")
	}
	m := stray.NewMachine()
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if fired := firedPatterns(stray, m.Counts()); !fired[foldName(fuseFlagTest)] || fired[guardName] {
		t.Errorf("stray loop fired %v, want the flag-test fold and no guard", fired)
	}
	for _, p := range []config.Precision{config.Double, config.Single} {
		if len(progs[p.String()].compiled.arms) == 0 {
			t.Errorf("loop kernel wrapped %s guards no diamond", p)
		}
	}
}
