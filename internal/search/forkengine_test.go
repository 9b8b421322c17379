package search

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"fpmix/internal/config"
	"fpmix/internal/faultinject"
	"fpmix/internal/hl"
	"fpmix/internal/prog"
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
		ch, err := fe.choices(eff)
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
// assembled programs against its scratch path's per-configuration
// Instrument+Link pipeline on the same effective-precision maps. The
// assemblies differ by design — slotted vs packed layout, and the fork
// engine elides double wrappers its per-configuration flag analysis
// proves unreachable — so addresses, step and cycle counts all diverge;
// the contract is bit-identical outputs and verdicts.
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
			if rng.Intn(2) == 0 {
				eff[fe.sites[i].OldAddr] = config.Single
			}
		}
		effs = append(effs, eff)
	}
	for k, eff := range effs {
		ch, err := fe.choices(eff)
		if err != nil {
			t.Fatal(err)
		}
		lp, err := fe.il.Assemble(ch)
		if err != nil {
			t.Fatal(err)
		}
		slotted := &vm.Machine{}
		slotted.ResetTo(lp)
		serr := slotted.Run()

		inst, err := fe.fallback.snips.Instrument(eff)
		if err != nil {
			t.Fatal(err)
		}
		plp, err := vm.Link(inst)
		if err != nil {
			t.Fatal(err)
		}
		packed := &vm.Machine{}
		packed.ResetTo(plp)
		perr := packed.Run()

		if (serr == nil) != (perr == nil) {
			t.Fatalf("eff %d: slotted err %v, packed err %v", k, serr, perr)
		}
		if !reflect.DeepEqual(slotted.Out, packed.Out) {
			t.Errorf("eff %d: outputs diverged between layouts", k)
		}
		if serr == nil && tgt.Verify(slotted.Out) != tgt.Verify(packed.Out) {
			t.Errorf("eff %d: verdicts diverged between layouts", k)
		}
		if slotted.Steps > packed.Steps {
			t.Errorf("eff %d: elided assembly ran longer than the wrapped one: %d vs %d steps",
				k, slotted.Steps, packed.Steps)
		}
	}
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
