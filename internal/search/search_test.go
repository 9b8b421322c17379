package search

import (
	"maps"
	"math"
	"testing"

	"fpmix/internal/config"
	"fpmix/internal/dataflow"
	"fpmix/internal/hl"
	"fpmix/internal/prog"
	"fpmix/internal/replace"
	"fpmix/internal/shadow"
	"fpmix/internal/vm"
)

// mixedProgram builds a program with one single-safe function (sums values
// exactly representable in float32) and one precision-sensitive function
// (accumulates tiny increments that vanish in float32).
func mixedProgram(t *testing.T) *prog.Module {
	t.Helper()
	p := hl.New("mixed", hl.ModeF64)
	a := p.ArrayInit("a", []float64{1.5, 2.25, 3.0, 0.5, 4.75, 8.5, 1.25, 2.0})
	safeSum := p.Scalar("safeSum")
	tiny := p.Scalar("tiny")
	i := p.Int("i")

	main := p.Func("main")
	main.Call("safe")
	main.Call("sensitive")
	main.Out(hl.Load(safeSum))
	main.Out(hl.Load(tiny))
	main.Halt()

	sf := p.Func("safe")
	sf.For(i, hl.IConst(0), hl.IConst(8), func() {
		sf.Set(safeSum, hl.Add(hl.Load(safeSum), hl.At(a, hl.ILoad(i))))
	})
	sf.Ret()

	sn := p.Func("sensitive")
	sn.Set(tiny, hl.Const(1.0))
	sn.For(i, hl.IConst(0), hl.IConst(200), func() {
		sn.Set(tiny, hl.Add(hl.Load(tiny), hl.Const(1e-9)))
	})
	sn.Ret()
	m, err := p.Build("main")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// refVerify returns a verification routine comparing against the double
// reference outputs within tol (decoding replaced outputs).
func refVerify(t *testing.T, m *prog.Module, tol float64) func([]vm.OutVal) bool {
	t.Helper()
	mach, err := vm.New(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := mach.Run(); err != nil {
		t.Fatal(err)
	}
	ref := make([]float64, len(mach.Out))
	for i, o := range mach.Out {
		ref[i] = o.F64()
	}
	return func(out []vm.OutVal) bool {
		if len(out) != len(ref) {
			return false
		}
		for i, o := range out {
			got := replace.Value(o.Bits)
			if math.IsNaN(got) {
				return false
			}
			if math.Abs(got-ref[i]) > tol*math.Max(1, math.Abs(ref[i])) {
				return false
			}
		}
		return true
	}
}

func TestSearchFindsSafeFunction(t *testing.T) {
	m := mixedProgram(t)
	tgt := Target{Module: m, Verify: refVerify(t, m, 1e-10)}
	res, err := Run(tgt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Candidates == 0 {
		t.Fatal("no candidates")
	}
	// The safe function must pass as a whole (coarsest granularity).
	foundSafeFunc := false
	for _, p := range res.Passing {
		if p.Kind == config.KindFunc && p.Label == "func safe" {
			foundSafeFunc = true
		}
		if p.Label == "func sensitive" {
			t.Error("sensitive function passed whole")
		}
	}
	if !foundSafeFunc {
		labels := []string{}
		for _, p := range res.Passing {
			labels = append(labels, p.Label)
		}
		t.Errorf("safe function not found as a passing piece; passing = %v", labels)
	}
	// Some but not all instructions replaced.
	if res.Stats.StaticSingle == 0 {
		t.Error("nothing replaced")
	}
	if res.Stats.StaticSingle == res.Candidates {
		t.Error("everything replaced — sensitive part should fail")
	}
	// More configurations tested than 2 (module failed, descent happened).
	if res.Tested <= 2 {
		t.Errorf("tested = %d", res.Tested)
	}
}

func TestSearchAllSafeConvergesAtModule(t *testing.T) {
	p := hl.New("allsafe", hl.ModeF64)
	x := p.ScalarInit("x", 2.0)
	main := p.Func("main")
	main.Set(x, hl.Mul(hl.Load(x), hl.Const(3.0)))
	main.Out(hl.Load(x))
	main.Halt()
	m, err := p.Build("main")
	if err != nil {
		t.Fatal(err)
	}
	tgt := Target{Module: m, Verify: refVerify(t, m, 1e-6)}
	res, err := Run(tgt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The whole program is provably exact in single (2*3 = 6 on the
	// integer grid), so the error-bound prover settles the module piece
	// without a run and only the final union is evaluated.
	if res.Tested != 1 {
		t.Errorf("tested = %d, want 1", res.Tested)
	}
	if res.Proved != 1 {
		t.Errorf("proved = %d, want 1", res.Proved)
	}
	if len(res.Passing) != 1 || res.Passing[0].Kind != config.KindModule {
		t.Errorf("passing = %+v", res.Passing)
	}
	if !res.FinalPass {
		t.Error("final union failed")
	}
	if res.Stats.StaticPct != 100 {
		t.Errorf("static pct = %v", res.Stats.StaticPct)
	}
}

func TestSearchParallelMatchesSerial(t *testing.T) {
	m := mixedProgram(t)
	v := refVerify(t, m, 1e-10)
	serial, err := Run(Target{Module: m, Verify: v}, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(Target{Module: m, Verify: v}, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Tested != par.Tested {
		t.Errorf("tested differ: %d vs %d", serial.Tested, par.Tested)
	}
	if serial.Stats.StaticSingle != par.Stats.StaticSingle {
		t.Errorf("replacement differs: %d vs %d", serial.Stats.StaticSingle, par.Stats.StaticSingle)
	}
	if serial.FinalPass != par.FinalPass {
		t.Error("final verdict differs")
	}
}

func TestSearchBinarySplitReducesTests(t *testing.T) {
	// A program with one big function of many safe adds and a single
	// sensitive instruction: binary splitting should isolate the bad
	// instruction in fewer evaluations than exhaustive expansion.
	p := hl.New("bigfunc", hl.ModeF64)
	x := p.ScalarInit("x", 1.0)
	tiny := p.ScalarInit("tiny", 1.0)
	main := p.Func("main")
	// One straight-line basic block: 24 safe adds with a single
	// precision-sensitive instruction buried in the middle.
	for k := 0; k < 24; k++ {
		main.Set(x, hl.Add(hl.Load(x), hl.Const(0.5)))
		if k == 11 {
			main.Set(tiny, hl.Add(hl.Load(tiny), hl.Const(1e-9)))
		}
	}
	main.Out(hl.Load(x))
	main.Out(hl.Load(tiny))
	main.Halt()
	m, err := p.Build("main")
	if err != nil {
		t.Fatal(err)
	}
	v := refVerify(t, m, 1e-10)
	// NoProve isolates the splitting dimension from the error-bound
	// prover's evaluation savings.
	plain, err := Run(Target{Module: m, Verify: v}, Options{BinarySplit: false, NoProve: true})
	if err != nil {
		t.Fatal(err)
	}
	split, err := Run(Target{Module: m, Verify: v}, Options{BinarySplit: true, NoProve: true})
	if err != nil {
		t.Fatal(err)
	}
	if split.Stats.StaticSingle != plain.Stats.StaticSingle {
		t.Errorf("split changed outcome: %d vs %d", split.Stats.StaticSingle, plain.Stats.StaticSingle)
	}
	if split.Tested >= plain.Tested {
		t.Errorf("binary split did not reduce tests: %d vs %d", split.Tested, plain.Tested)
	}
}

func TestSearchGranularityBlock(t *testing.T) {
	m := mixedProgram(t)
	v := refVerify(t, m, 1e-10)
	res, err := Run(Target{Module: m, Verify: v}, Options{Granularity: config.KindBlock})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Passing {
		if p.Kind == config.KindInsn {
			t.Error("descended to instructions despite block granularity")
		}
	}
}

func TestSearchPrioritizeSameOutcome(t *testing.T) {
	m := mixedProgram(t)
	v := refVerify(t, m, 1e-10)
	a, err := Run(Target{Module: m, Verify: v}, Options{Prioritize: false})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Target{Module: m, Verify: v}, Options{Prioritize: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.StaticSingle != b.Stats.StaticSingle || a.FinalPass != b.FinalPass {
		t.Error("prioritization changed the outcome")
	}
}

func TestSearchRespectsIgnore(t *testing.T) {
	m := mixedProgram(t)
	base, err := config.FromModule(m)
	if err != nil {
		t.Fatal(err)
	}
	// Ignore the sensitive function entirely.
	for _, fn := range base.Root.Children {
		if fn.Name == "sensitive" {
			fn.Flag = config.Ignore
		}
	}
	v := refVerify(t, m, 1e-10)
	res, err := Run(Target{Module: m, Verify: v}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	resIgn, err := Run(Target{Module: m, Verify: v, Base: base}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resIgn.Candidates >= res.Candidates {
		t.Errorf("ignore did not shrink candidates: %d vs %d", resIgn.Candidates, res.Candidates)
	}
	// With the troublemaker ignored, the whole remaining module passes.
	if !resIgn.FinalPass {
		t.Error("final should pass with sensitive ignored")
	}
}

// coldProgram extends the mixed shape with a function that is never
// called: its candidates profile to weight zero, so the pruned search
// must auto-pass them without an evaluation run.
func coldProgram(t *testing.T) *prog.Module {
	t.Helper()
	p := hl.New("coldprog", hl.ModeF64)
	safe := p.Scalar("safe")
	tiny := p.Scalar("tiny")
	unused := p.Scalar("unused")
	i := p.Int("i")

	main := p.Func("main")
	main.Call("safe")
	main.Call("sensitive")
	main.Out(hl.Load(safe))
	main.Out(hl.Load(tiny))
	main.Halt()

	sf := p.Func("safe")
	sf.For(i, hl.IConst(0), hl.IConst(8), func() {
		sf.Set(safe, hl.Add(hl.Load(safe), hl.Const(0.25)))
	})
	sf.Ret()

	sn := p.Func("sensitive")
	sn.Set(tiny, hl.Const(1.0))
	sn.For(i, hl.IConst(0), hl.IConst(200), func() {
		sn.Set(tiny, hl.Add(hl.Load(tiny), hl.Const(1e-9)))
	})
	sn.Ret()

	cold := p.Func("cold") // never called
	cold.Set(unused, hl.Add(hl.Load(unused), hl.Const(0.5)))
	cold.Set(unused, hl.Mul(hl.Load(unused), hl.Const(2.0)))
	cold.Ret()

	m, err := p.Build("main")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSearchPrunesZeroWeightPieces(t *testing.T) {
	m := coldProgram(t)
	v := refVerify(t, m, 1e-10)
	// NoProve on both runs isolates the pruning dimension: the error-bound
	// prover would otherwise settle the never-executed pieces on its own
	// (unreached sites are trivially exact).
	pruned, err := Run(Target{Module: m, Verify: v}, Options{NoProve: true})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(Target{Module: m, Verify: v}, Options{NoPrune: true, NoProve: true})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.PrunedCandidates == 0 {
		t.Error("cold function candidates not pruned")
	}
	if full.PrunedCandidates != 0 {
		t.Errorf("NoPrune still pruned %d candidates", full.PrunedCandidates)
	}
	if pruned.Tested >= full.Tested {
		t.Errorf("pruning did not reduce evaluations: %d vs %d", pruned.Tested, full.Tested)
	}
	if pruned.Candidates != full.Candidates {
		t.Errorf("candidate count changed under pruning: %d vs %d", pruned.Candidates, full.Candidates)
	}
	// The final configurations must be identical: a never-executed piece
	// passes evaluation trivially, so auto-passing it changes nothing.
	if pruned.FinalPass != full.FinalPass {
		t.Error("final verdict differs under pruning")
	}
	effP, effF := pruned.Final.Effective(), full.Final.Effective()
	if len(effP) != len(effF) {
		t.Fatalf("effective map sizes differ: %d vs %d", len(effP), len(effF))
	}
	for a, p := range effF {
		if effP[a] != p {
			t.Errorf("final config differs at %#x: %v vs %v", a, effP[a], p)
		}
	}
}

func TestSearchExcludesUnsafeSinks(t *testing.T) {
	// Inject an analysis result that classifies one safe-function
	// candidate as an exact-integer sink; the search must keep it double,
	// report it, and leave every other decision unchanged. The module's
	// memoized result is shared, so the doctored one is a copy.
	m := mixedProgram(t)
	memo, err := dataflow.Analyze(m)
	if err != nil {
		t.Fatal(err)
	}
	ana := *memo
	ana.Sites = maps.Clone(memo.Sites)
	var victim uint64
	for a := range ana.Sites {
		if victim == 0 || a < victim {
			victim = a
		}
	}
	s := ana.Sites[victim]
	s.Unsafe = true
	ana.Sites[victim] = s

	v := refVerify(t, m, 1e-10)
	pruned, err := Run(Target{Module: m, Verify: v,
		InstOpts: replace.InstrumentOptions{Analysis: &ana}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(Target{Module: m, Verify: v}, Options{NoPrune: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned.Unsafe) != 1 || pruned.Unsafe[0] != victim {
		t.Fatalf("Unsafe = %#x, want [%#x]", pruned.Unsafe, victim)
	}
	if pruned.PrunedCandidates < 1 {
		t.Error("unsafe sink not counted as pruned")
	}
	if pruned.Candidates != full.Candidates {
		t.Errorf("candidate count changed: %d vs %d", pruned.Candidates, full.Candidates)
	}
	if p := pruned.Final.Effective()[victim]; p != config.Double {
		t.Errorf("excluded sink configured %v, want Double", p)
	}
	if n := pruned.Final.NodeAt(victim); n == nil || n.Note == "" {
		t.Error("pruned sink not annotated in the final configuration")
	}
}

// TestSearchAnalyzesOnce pins one dataflow analysis per Run of a fresh
// module: pruning and the local runner's instrumenter share it (the
// from-scratch EngineOff oracle instruments every configuration with it
// too), NoPrune still analyzes once for the instrumenter, and NoAnalysis
// analyzes nothing. Every analysis of the module, the fork engine's flag
// analysis and the prover's included, shares one supergraph. A repeat
// search of an analyzed module analyzes nothing and builds no
// supergraph: the module keeps both.
func TestSearchAnalyzesOnce(t *testing.T) {
	v := refVerify(t, mixedProgram(t), 1e-10)
	analyzed := mixedProgram(t)
	if _, err := Run(Target{Module: analyzed, Verify: v}, Options{}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		m    *prog.Module
		inst replace.InstrumentOptions
		opts Options
		want int64
		// graphs is the supergraph builds.
		graphs int64
	}{
		{"default", mixedProgram(t), replace.InstrumentOptions{}, Options{}, 1, 1},
		{"noprune", mixedProgram(t), replace.InstrumentOptions{}, Options{NoPrune: true}, 1, 1},
		{"engine off", mixedProgram(t), replace.InstrumentOptions{}, Options{Engine: EngineOff}, 1, 1},
		{"noanalysis", mixedProgram(t), replace.InstrumentOptions{NoAnalysis: true}, Options{}, 0, 1},
		{"repeat", analyzed, replace.InstrumentOptions{}, Options{}, 0, 0},
	} {
		before, graphs := dataflow.Analyses(), dataflow.GraphBuilds()
		if _, err := Run(Target{Module: tc.m, Verify: v, InstOpts: tc.inst}, tc.opts); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := dataflow.Analyses() - before; got != tc.want {
			t.Errorf("%s: %d dataflow analyses, want %d", tc.name, got, tc.want)
		}
		if got := dataflow.GraphBuilds() - graphs; got != tc.graphs {
			t.Errorf("%s: %d supergraph builds, want %d", tc.name, got, tc.graphs)
		}
	}
}

func TestSearchBaselineMustVerify(t *testing.T) {
	m := mixedProgram(t)
	tgt := Target{Module: m, Verify: func([]vm.OutVal) bool { return false }}
	if _, err := Run(tgt, Options{}); err == nil {
		t.Error("baseline verification failure not reported")
	}
	// The shadow pass's baseline is checked just as a profiling run is.
	sh, err := shadow.Collect("mixed", m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(tgt, Options{Shadow: sh}); err == nil {
		t.Error("baseline verification failure of the shadow pass's run not reported")
	}
}

func TestSearchTargetValidation(t *testing.T) {
	if _, err := Run(Target{}, Options{}); err == nil {
		t.Error("empty target accepted")
	}
}

func TestSearchDynamicVsStaticDivergence(t *testing.T) {
	// A hot sensitive loop and cold safe code: static % high, dynamic %
	// low — the CG/FT shape from Figure 10.
	p := hl.New("hotcold", hl.ModeF64)
	cold := p.Scalar("cold")
	hot := p.ScalarInit("hot", 1.0)
	i := p.Int("i")
	main := p.Func("main")
	// Cold safe region: 10 static candidates, 10 dynamic executions.
	for k := 0; k < 10; k++ {
		main.Set(cold, hl.Add(hl.Load(cold), hl.Const(0.25)))
	}
	// Hot sensitive loop: 1 static candidate, 500 dynamic executions.
	main.For(i, hl.IConst(0), hl.IConst(500), func() {
		main.Set(hot, hl.Add(hl.Load(hot), hl.Const(1e-9)))
	})
	main.Out(hl.Load(cold))
	main.Out(hl.Load(hot))
	main.Halt()
	m, err := p.Build("main")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Target{Module: m, Verify: refVerify(t, m, 1e-10)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.StaticPct < 50 {
		t.Errorf("static pct = %.1f, want most instructions replaceable", res.Stats.StaticPct)
	}
	if res.Stats.DynamicPct > res.Stats.StaticPct {
		t.Errorf("dynamic pct (%.1f) should lag static (%.1f) here",
			res.Stats.DynamicPct, res.Stats.StaticPct)
	}
}
