package search

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"fpmix/internal/config"
	"fpmix/internal/faultinject"
	"fpmix/internal/hl"
	"fpmix/internal/isa"
	"fpmix/internal/prog"
	"fpmix/internal/replace"
	"fpmix/internal/vm"
)

// Fork-point evaluation must change nothing but speed: search finals are
// byte-identical between the default fork engine and the EngineOff
// oracle, on real kernels, on randomized programs, under chaos and
// across checkpoint resume — and a forked machine run is whole-machine
// identical to the from-scratch run of the same assembled program.

// requireOracleIdentity checks a fork-engine result against the EngineOff
// oracle's: identical final bytes, final verdict, statistics and passing
// sets, and a trajectory that differs only by the verdicts the memo
// replays (the oracle evaluates those duplicates again, or proves them
// again when the replayed verdict was a proof).
func requireOracleIdentity(t *testing.T, forked, oracle *Result) {
	t.Helper()
	if forked.Final.String() != oracle.Final.String() {
		t.Error("fork engine changed the final configuration")
	}
	if forked.FinalPass != oracle.FinalPass {
		t.Errorf("fork engine changed the final verdict: %v vs %v", forked.FinalPass, oracle.FinalPass)
	}
	if forked.Stats != oracle.Stats {
		t.Errorf("stats differ: %+v vs %+v", forked.Stats, oracle.Stats)
	}
	if !reflect.DeepEqual(passingSets(forked), passingSets(oracle)) {
		t.Error("passing pieces differ from the oracle's")
	}
	if got, want := forked.Tested+forked.MemoHits+forked.Proved, oracle.Tested+oracle.Proved; got != want {
		t.Errorf("trajectory differs: tested+memo+proved %d+%d+%d, oracle tested+proved %d+%d",
			forked.Tested, forked.MemoHits, forked.Proved, oracle.Tested, oracle.Proved)
	}
}

func TestForkSearchIdenticalOnKernels(t *testing.T) {
	names := []string{"ep", "mg"}
	if !testing.Short() {
		names = append(names, "lu")
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			tgt := kernelTarget(t, name)
			opts := Options{Workers: 4, BinarySplit: true, Prioritize: true}
			forked, err := Run(tgt, opts)
			if err != nil {
				t.Fatal(err)
			}
			oo := opts
			oo.Engine = EngineOff
			oracle, err := Run(tgt, oo)
			if err != nil {
				t.Fatal(err)
			}
			requireOracleIdentity(t, forked, oracle)
			if forked.Forked == 0 {
				t.Error("fork engine evaluated nothing from a snapshot")
			}
			if forked.Forked > 0 && forked.PrefixInstrsSaved == 0 {
				t.Error("forked verdicts saved no prefix instructions")
			}
			t.Logf("%s: %d/%d verdicts forked, %d prefix instructions saved",
				name, forked.Forked, forked.Tested, forked.PrefixInstrsSaved)
		})
	}
}

// randProgram generates a small program whose functions are randomly
// single-safe (exactly representable arithmetic) or precision-sensitive
// (accumulation that vanishes in float32), with randomized trip counts
// and constants, so fork/oracle differentials cover layouts and fork
// points no hand-written fixture anticipates.
func randProgram(t *testing.T, seed int64) *prog.Module {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := hl.New("rand", hl.ModeF64)
	i := p.Int("i")
	nf := 2 + rng.Intn(3)
	var outs []hl.Expr
	main := p.Func("main")
	for f := 0; f < nf; f++ {
		name := string(rune('a' + f))
		acc := p.Scalar("acc_" + name)
		main.Call(name)
		outs = append(outs, hl.Load(acc))
		fn := p.Func(name)
		trips := int64(20 + rng.Intn(150))
		if rng.Intn(2) == 0 {
			// Safe: sums of dyadic rationals, exact in float32.
			c := float64(1+rng.Intn(8)) * 0.25
			fn.For(i, hl.IConst(0), hl.IConst(trips), func() {
				fn.Set(acc, hl.Add(hl.Load(acc), hl.Const(c)))
			})
		} else {
			// Sensitive: tiny increments on a unit base vanish in single.
			c := 1e-9 * (1 + rng.Float64())
			fn.Set(acc, hl.Const(1.0))
			fn.For(i, hl.IConst(0), hl.IConst(trips), func() {
				fn.Set(acc, hl.Add(hl.Load(acc), hl.Const(c)))
			})
		}
		fn.Ret()
	}
	for _, o := range outs {
		main.Out(o)
	}
	main.Halt()
	m, err := p.Build("main")
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return m
}

func TestForkSearchIdenticalOnRandomPrograms(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		m := randProgram(t, seed)
		tgt := Target{Module: m, Verify: refVerify(t, m, 1e-10)}
		forked, err := Run(tgt, Options{Workers: 2})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		oracle, err := Run(tgt, Options{Workers: 2, Engine: EngineOff})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		t.Run(fmt.Sprint(seed), func(t *testing.T) { requireOracleIdentity(t, forked, oracle) })
	}
}

// TestForkWholeMachineIdentity pins the strongest form of the identity
// contract: for every fork point the donor records, evaluating a sibling
// configuration from its snapshot leaves the machine in exactly the state
// a from-scratch run of the same assembled program reaches — registers,
// flags-visible behavior, memory, outputs, step and cycle counts, and the
// per-address execution profile.
func TestForkWholeMachineIdentity(t *testing.T) {
	m := mixedProgram(t)
	tgt := Target{Module: m, Verify: refVerify(t, m, 1e-10)}
	fe, err := newForkEngine(tgt, false)
	if err != nil {
		t.Fatal(err)
	}
	d := fe.ensureDonor(map[uint64]config.Precision{})
	if d == nil {
		t.Fatal("donor pass unavailable")
	}
	tested := 0
	for i := range fe.sites {
		if d.touch[i].snap == nil {
			continue
		}
		tested++
		eff := map[uint64]config.Precision{fe.sites[i].OldAddr: config.Single}
		ch, err := fe.choices(eff, true)
		if err != nil {
			t.Fatal(err)
		}
		lp, err := fe.il.Assemble(ch)
		if err != nil {
			t.Fatal(err)
		}

		scratch := &vm.Machine{}
		scratch.ResetTo(lp)
		serr := scratch.Run()

		fork := &vm.Machine{}
		fork.TrackDirtyPages()
		if err := fork.RestoreTo(lp, d.touch[i].snap); err != nil {
			t.Fatal(err)
		}
		ferr := fork.Run()

		if (serr == nil) != (ferr == nil) {
			t.Fatalf("site %d: scratch err %v, forked err %v", i, serr, ferr)
		}
		if fork.GPR != scratch.GPR {
			t.Errorf("site %d: GPR state diverged", i)
		}
		if fork.XMM != scratch.XMM {
			t.Errorf("site %d: XMM state diverged", i)
		}
		if !bytes.Equal(fork.Mem, scratch.Mem) {
			t.Errorf("site %d: memory diverged", i)
		}
		if !reflect.DeepEqual(fork.Out, scratch.Out) {
			t.Errorf("site %d: outputs diverged", i)
		}
		if fork.Steps != scratch.Steps || fork.Cycles != scratch.Cycles {
			t.Errorf("site %d: accounting diverged: steps %d/%d cycles %d/%d",
				i, fork.Steps, scratch.Steps, fork.Cycles, scratch.Cycles)
		}
		if !reflect.DeepEqual(fork.Profile(), scratch.Profile()) {
			t.Errorf("site %d: execution profile diverged", i)
		}
	}
	if tested == 0 {
		t.Fatal("donor touched no candidate sites")
	}
}

// TestStableLayoutDifferential compares the fork engine's incrementally
// assembled programs against the EngineOff oracle's InstrumentMap + vm.New
// pipeline on the same effective-precision maps. The fully wrapped
// assembly — the scratch path's program — must match the oracle exactly:
// outputs, steps, cycles and fault kind and op (only addresses differ,
// slotted vs packed layout). The elided assembly — the forked path's
// program — drops double wrappers its per-configuration flag analysis
// proves unreachable, so its contract is identical outputs and verdicts
// in no more steps.
func TestStableLayoutDifferential(t *testing.T) {
	m := mixedProgram(t)
	tgt := Target{Module: m, Verify: refVerify(t, m, 1e-10)}
	fe, err := newForkEngine(tgt, false)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	effs := []map[uint64]config.Precision{
		{}, // all double
	}
	all := map[uint64]config.Precision{}
	for i := range fe.sites {
		all[fe.sites[i].OldAddr] = config.Single
	}
	effs = append(effs, all)
	for k := 0; k < 6; k++ {
		eff := map[uint64]config.Precision{}
		for i := range fe.sites {
			switch rng.Intn(3) {
			case 0:
				eff[fe.sites[i].OldAddr] = config.Single
			case 1:
				if k%2 == 1 {
					eff[fe.sites[i].OldAddr] = config.Ignore
				}
			}
		}
		effs = append(effs, eff)
	}
	run := func(elide bool, eff map[uint64]config.Precision, max uint64) (*vm.Machine, error) {
		ch, err := fe.choices(eff, elide)
		if err != nil {
			t.Fatal(err)
		}
		lp, err := fe.il.Assemble(ch)
		if err != nil {
			t.Fatal(err)
		}
		mach := &vm.Machine{}
		mach.ResetTo(lp)
		mach.MaxSteps = max
		return mach, mach.Run()
	}
	runOracle := func(eff map[uint64]config.Precision, max uint64) (*vm.Machine, error) {
		inst, err := replace.InstrumentMap(m, eff, tgt.InstOpts)
		if err != nil {
			t.Fatal(err)
		}
		mach, err := vm.New(inst)
		if err != nil {
			t.Fatal(err)
		}
		mach.MaxSteps = max
		return mach, mach.Run()
	}
	for k, eff := range effs {
		oracle, oerr := runOracle(eff, 0)
		// The wrapped assembly also matches under a step budget that
		// cuts the run mid-way: same fault kind and op at the same step.
		for _, max := range []uint64{0, oracle.Steps / 2} {
			o, oe := oracle, oerr
			if max > 0 {
				o, oe = runOracle(eff, max)
			}
			wrapped, werr := run(false, eff, max)
			if !reflect.DeepEqual(wrapped.Out, o.Out) {
				t.Errorf("eff %d budget %d: wrapped outputs diverged from the oracle", k, max)
			}
			if wrapped.Steps != o.Steps || wrapped.Cycles != o.Cycles {
				t.Errorf("eff %d budget %d: wrapped accounting diverged: steps %d/%d cycles %d/%d",
					k, max, wrapped.Steps, o.Steps, wrapped.Cycles, o.Cycles)
			}
			if !sameFault(werr, oe) {
				t.Errorf("eff %d budget %d: wrapped err %v, oracle err %v", k, max, werr, oe)
			}
		}

		elided, eerr := run(true, eff, 0)
		if (eerr == nil) != (oerr == nil) {
			t.Fatalf("eff %d: elided err %v, oracle err %v", k, eerr, oerr)
		}
		if !reflect.DeepEqual(elided.Out, oracle.Out) {
			t.Errorf("eff %d: elided outputs diverged from the oracle", k)
		}
		if eerr == nil && tgt.Verify(elided.Out) != tgt.Verify(oracle.Out) {
			t.Errorf("eff %d: verdicts diverged between layouts", k)
		}
		if elided.Steps > oracle.Steps {
			t.Errorf("eff %d: elided assembly ran longer than the wrapped one: %d vs %d steps",
				k, elided.Steps, oracle.Steps)
		}
	}
}

// sameFault reports whether two run results agree up to the fault
// address: both clean, or both faults of the same kind at the same op.
func sameFault(a, b error) bool {
	var fa, fb *vm.Fault
	if errors.As(a, &fa) != errors.As(b, &fb) {
		return false
	}
	if fa == nil {
		return (a == nil) == (b == nil)
	}
	return fa.Kind == fb.Kind && fa.Op == fb.Op
}

// TestForkFinalByteIdenticalUnderChaos: a chaos-armed forking search
// settles every verdict exactly as the fault-free search does
// — injected faults force retries, retries run from scratch, and the
// final configuration is byte-identical.
func TestForkFinalByteIdenticalUnderChaos(t *testing.T) {
	m := mixedProgram(t)
	tgt := Target{Module: m, Verify: refVerify(t, m, 1e-10)}
	clean, err := Run(tgt, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	injectedTotal := 0
	for _, seed := range []int64{1, 2, 3} {
		inj := faultinject.New(seed, chaosRates, 5*time.Millisecond)
		res, err := Run(tgt, Options{
			Workers: 4,
			Engine:  EngineFork,
			Chaos:   inj,
			Backoff: time.Millisecond,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Final.String() != clean.Final.String() {
			t.Errorf("seed %d: chaos-armed forked final differs from the fault-free run", seed)
		}
		if res.FinalPass != clean.FinalPass {
			t.Errorf("seed %d: FinalPass = %v, clean %v", seed, res.FinalPass, clean.FinalPass)
		}
		if res.Tested != clean.Tested {
			t.Errorf("seed %d: Tested = %d, clean %d", seed, res.Tested, clean.Tested)
		}
		injectedTotal += res.Injected
	}
	if injectedTotal == 0 {
		t.Error("no faults injected across three seeds at ~60% rates")
	}
}

func TestForkKernelIdenticalUnderChaos(t *testing.T) {
	names := []string{"ep"}
	if !testing.Short() {
		names = append(names, "mg")
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			tgt := kernelTarget(t, name)
			clean, err := Run(tgt, Options{Workers: 4, BinarySplit: true, Prioritize: true})
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(tgt, Options{
				Workers: 4, BinarySplit: true, Prioritize: true,
				Engine:  EngineFork,
				Chaos:   faultinject.New(42, faultinject.DefaultRates, 5*time.Millisecond),
				Backoff: time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Final.String() != clean.Final.String() {
				t.Error("chaos-armed forked run changed the final configuration")
			}
			if res.FinalPass != clean.FinalPass {
				t.Errorf("chaos-armed forked run changed the final verdict: %v vs %v",
					res.FinalPass, clean.FinalPass)
			}
			t.Logf("%s: %d injected faults, %d forked verdicts, identical finals",
				name, res.Injected, res.Forked)
		})
	}
}

// TestForkCheckpointResumeByteIdentical: a chaos-armed forking search
// journals its verdicts with fork provenance; resuming the journal
// (under fresh chaos) replays them — provenance intact — and composes a
// final byte-identical to the fault-free run's.
func TestForkCheckpointResumeByteIdentical(t *testing.T) {
	m := mixedProgram(t)
	tgt := Target{Module: m, Verify: refVerify(t, m, 1e-10)}
	clean, err := Run(tgt, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fork.ckpt")

	jr, err := NewJournal(path, Fingerprint{Options: "mixed fork"})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(tgt, Options{
		Workers:    2,
		Engine:     EngineFork,
		Chaos:      faultinject.New(11, chaosRates, 5*time.Millisecond),
		Backoff:    time.Millisecond,
		Checkpoint: jr,
	})
	if err != nil {
		t.Fatal(err)
	}
	jr.Close()
	if full.Forked == 0 {
		t.Error("chaos-armed fork search forked no verdicts")
	}

	re, err := ResumeJournal(path, Fingerprint{Options: "mixed fork"})
	if err != nil {
		t.Fatal(err)
	}
	if re.Prior() == 0 {
		t.Fatal("resume loaded no prior verdicts")
	}
	resumed, err := Run(tgt, Options{
		Workers:    2,
		Engine:     EngineFork,
		Chaos:      faultinject.New(12, chaosRates, 5*time.Millisecond),
		Backoff:    time.Millisecond,
		Checkpoint: re,
	})
	re.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Resumed == 0 {
		t.Error("resumed search replayed no checkpointed verdicts")
	}
	for _, res := range []*Result{full, resumed} {
		if res.Final.String() != clean.Final.String() {
			t.Error("forked chaos+resume final differs from the fault-free run")
		}
		if res.FinalPass != clean.FinalPass {
			t.Errorf("FinalPass = %v, clean %v", res.FinalPass, clean.FinalPass)
		}
	}
	// Replayed verdicts carry the fork provenance they were journaled with.
	replayedForked := false
	for _, ev := range resumed.Evals {
		if ev.Prov == ProvCheckpoint && ev.Forked {
			replayedForked = true
			if ev.PrefixSaved == 0 {
				t.Error("replayed forked verdict lost its prefix-saved count")
			}
		}
	}
	if full.Forked > 0 && !replayedForked {
		t.Error("no replayed verdict carried fork provenance")
	}
}

// TestForkFaultPCsAreSourceAddresses pins the fault-address rule on a
// hand-built module: a fault inside a slot reports the site's candidate
// instruction, and a fault in shared code after the slot reports that
// shared instruction's source address — from the forked path, a retry
// and a chaos-armed run alike, although all three run the slotted layout.
func TestForkFaultPCsAreSourceAddresses(t *testing.T) {
	bits := int64(math.Float64bits(1.5))
	f := &prog.Func{Name: "main", Instrs: []isa.Instr{
		isa.I(isa.MOVRI, isa.Gpr(isa.R15), isa.Imm(bits)),
		isa.I(isa.MOVQ, isa.Xmm(1), isa.Gpr(isa.R15)),
		isa.I(isa.MOVQ, isa.Xmm(0), isa.Gpr(isa.R15)),
		isa.I(isa.ADDSD, isa.Xmm(0), isa.Xmm(1)), // the site
		isa.I(isa.MOVRI, isa.Gpr(isa.RAX), isa.Imm(7)),
		isa.I(isa.ADDI, isa.Gpr(isa.RAX), isa.Imm(1)),
		isa.I(isa.SYSCALL, isa.Imm(isa.SysOutF64)),
		isa.I(isa.HALT),
	}}
	m, err := prog.Build("faults", []*prog.Func{f}, nil, prog.DataBase+4096, "main")
	if err != nil {
		t.Fatal(err)
	}
	fe, err := newForkEngine(Target{Module: m, Verify: refVerify(t, m, 0)}, false)
	if err != nil {
		t.Fatal(err)
	}
	site := fe.siteIdx[f.Instrs[3].Addr]
	eff := map[uint64]config.Precision{f.Instrs[3].Addr: config.Single}
	d := fe.ensureDonor(eff)
	if d == nil || d.touch[site].snap == nil {
		t.Fatal("donor pass did not reach the site")
	}
	prefix := d.touch[site].steps
	n := uint64(len(fe.sites[site].Variants[replace.VariantSingle]))
	if n < 2 {
		t.Fatalf("single variant has %d instructions; the in-slot case needs two", n)
	}
	if fe.sites[site].Addr+fe.sites[site].Size == f.Instrs[4].Addr {
		t.Fatal("shared code after the slot did not move: the layouts coincide")
	}
	for _, c := range []struct {
		name string
		at   uint64 // instructions executed before the faulting one
		want uint64
	}{
		{"in slot", prefix + 1, f.Instrs[3].Addr},
		{"shared after slot", prefix + n + 1, f.Instrs[5].Addr},
	} {
		check := func(path string, out outcome, err error, kind vm.FaultKind, forked bool) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			if out.forked != forked {
				t.Errorf("%s/%s: forked %v, want %v", c.name, path, out.forked, forked)
			}
			if out.fault == nil || out.fault.Kind != kind {
				t.Fatalf("%s/%s: fault %v, want a %v", c.name, path, out.fault, kind)
			}
			if out.fault.PC != c.want {
				t.Errorf("%s/%s: fault PC %#x, want source address %#x", c.name, path, out.fault.PC, c.want)
			}
		}
		fe.t.MaxSteps = c.at
		out, err := fe.evaluate(evalRequest{eff: eff})
		check("forked", out, err, vm.FaultMaxSteps, true)
		out, err = fe.evaluate(evalRequest{eff: eff, attempt: 1})
		check("retry", out, err, vm.FaultMaxSteps, false)
		fe.t.MaxSteps = 0
		// An armed trap fires on the instruction whose step count
		// reaches it, counting that instruction.
		out, err = fe.evaluate(evalRequest{eff: eff, trapAfter: c.at + 1})
		check("chaos", out, err, vm.FaultInjected, false)
	}
}

// TestForkMidBlockRestoreOnKernels pins mid-block restore on real
// kernels. Only the donor's assembly splits blocks at the slot bases, so
// a sibling restored at its fork slot usually enters the compiled stream
// in the middle of a block. For every site the donor touched, the
// single-site sibling restored from the donor's snapshot must finish in
// exactly the machine the same restore reaches on the per-step tier, and
// in the machine a from-scratch run of the same program reaches. Against
// the scratch run, steps, cycles and the execution profile compare as
// the work after the fork slot: the donor's prefix runs its own elided
// assembly, whose accounting differs from the sibling's by design.
func TestForkMidBlockRestoreOnKernels(t *testing.T) {
	names := []string{"sp"}
	if !testing.Short() {
		names = append(names, "lu", "bt")
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			tgt := kernelTarget(t, name)
			fe, err := newForkEngine(tgt, false)
			if err != nil {
				t.Fatal(err)
			}
			d := fe.ensureDonor(map[uint64]config.Precision{})
			if d == nil {
				t.Fatal("donor pass unavailable")
			}
			tested := 0
			for i := range fe.sites {
				snap := d.touch[i].snap
				if snap == nil {
					continue
				}
				tested++
				ch, err := fe.choices(map[uint64]config.Precision{fe.sites[i].OldAddr: config.Single}, true)
				if err != nil {
					t.Fatal(err)
				}
				lp, err := fe.il.Assemble(ch)
				if err != nil {
					t.Fatal(err)
				}
				// run finishes the sibling restored from snap, or from
				// the entry point when snap is nil, noting where it
				// reached the fork slot.
				run := func(snap *vm.Snapshot, noCompile bool) suffixRun {
					m := &vm.Machine{}
					m.TrackDirtyPages()
					if snap == nil {
						m.ResetTo(lp)
						m.StopAt(fe.sites[i].Addr)
					} else if err := m.RestoreTo(lp, snap); err != nil {
						t.Fatal(err)
					}
					m.MaxSteps = tgt.MaxSteps
					m.NoCompile = noCompile
					if snap == nil {
						var st *vm.Stopped
						if err := m.Run(); !errors.As(err, &st) {
							t.Fatalf("site %d: scratch run did not reach the fork slot: %v", i, err)
						}
						m.ClearStop(st.PC)
					}
					r := suffixRun{m: m, steps: m.Steps, cycles: m.Cycles, profile: m.Profile()}
					r.err = m.Run()
					return r
				}
				fork := run(snap, false)
				label := fmt.Sprintf("site %d", i)
				sameSuffix(t, label+" per-step", fork, run(snap, true))
				sameSuffix(t, label+" scratch", fork, run(nil, false))
			}
			if tested == 0 {
				t.Fatal("donor touched no candidate sites")
			}
			t.Logf("%s: %d single-site siblings restored", name, tested)
		})
	}
}

// suffixRun is a finished run with the accounting it had at the fork
// slot.
type suffixRun struct {
	m             *vm.Machine
	err           error
	steps, cycles uint64
	profile       map[uint64]uint64
}

// sameSuffix reports every difference between two finished runs: error,
// registers, memory and outputs, and the steps, cycles and per-address
// execution counts each spent after its fork slot. Two restores of one
// snapshot share that accounting, so for them this is whole-machine
// equality.
func sameSuffix(t *testing.T, label string, a, b suffixRun) {
	t.Helper()
	if fmt.Sprint(a.err) != fmt.Sprint(b.err) {
		t.Errorf("%s: err %v, want %v", label, a.err, b.err)
	}
	if a.m.GPR != b.m.GPR {
		t.Errorf("%s: GPR state diverged", label)
	}
	if a.m.XMM != b.m.XMM {
		t.Errorf("%s: XMM state diverged", label)
	}
	if !bytes.Equal(a.m.Mem, b.m.Mem) {
		t.Errorf("%s: memory diverged", label)
	}
	if !reflect.DeepEqual(a.m.Out, b.m.Out) {
		t.Errorf("%s: outputs diverged", label)
	}
	if as, bs := a.m.Steps-a.steps, b.m.Steps-b.steps; as != bs {
		t.Errorf("%s: suffix steps %d, want %d", label, as, bs)
	}
	if ac, bc := a.m.Cycles-a.cycles, b.m.Cycles-b.cycles; ac != bc {
		t.Errorf("%s: suffix cycles %d, want %d", label, ac, bc)
	}
	if !reflect.DeepEqual(profileSince(a), profileSince(b)) {
		t.Errorf("%s: suffix execution profile diverged", label)
	}
}

// profileSince is r's per-address execution counts after its fork slot.
func profileSince(r suffixRun) map[uint64]uint64 {
	p := r.m.Profile()
	for addr, n := range r.profile {
		if p[addr] -= n; p[addr] == 0 {
			delete(p, addr)
		}
	}
	return p
}
