package search

import (
	"math"
	"testing"

	"fpmix/internal/hl"
	"fpmix/internal/replace"
	"fpmix/internal/verify"
	"fpmix/internal/vm"
)

// interactingProgram builds a program where two regions pass verification
// individually but their combination fails: each region adds an error of
// just under the tolerance, so together they exceed it.
func interactingProgram(t *testing.T) (Target, float64) {
	t.Helper()
	p := hl.New("interact", hl.ModeF64)
	a := p.ScalarInit("a", 1.0)
	b := p.ScalarInit("b", 1.0)
	i := p.Int("i")
	main := p.Func("main")
	main.Call("parta")
	main.Call("partb")
	main.Out(hl.Add(hl.Load(a), hl.Load(b)))
	main.Halt()
	// Each part accumulates increments that single precision rounds away,
	// shifting the output by ~6e-7 each.
	fa := p.Func("parta")
	fa.For(i, hl.IConst(0), hl.IConst(20), func() {
		fa.Set(a, hl.Add(hl.Load(a), hl.Const(3.1e-8)))
	})
	fa.Ret()
	fb := p.Func("partb")
	fb.For(i, hl.IConst(0), hl.IConst(60), func() {
		fb.Set(b, hl.Add(hl.Load(b), hl.Const(3.1e-8)))
	})
	fb.Ret()
	mod, err := p.Build("main")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := vm.New(mod)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	want := ref.Out[0].F64()
	tol := 2.0e-6 // each part alone drifts ~0.6e-6/1.9e-6; together ~2.5e-6
	tgt := Target{
		Module: mod,
		Verify: func(out []vm.OutVal) bool {
			got := verify.Decode(out)
			return len(got) == 1 && math.Abs(got[0]-want) < tol
		},
	}
	return tgt, want
}

func TestComposeRecoversPassingSubset(t *testing.T) {
	tgt, _ := interactingProgram(t)
	res, err := Run(tgt, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalPass {
		t.Skip("union passed; interaction did not materialize at this tolerance")
	}
	if len(res.Passing) < 2 {
		t.Fatalf("expected both parts to pass individually, got %d pieces", len(res.Passing))
	}
	cr, err := Compose(tgt, res)
	if err != nil {
		t.Fatal(err)
	}
	if !cr.Pass {
		t.Fatal("second phase found no passing composition")
	}
	if len(cr.Dropped) == 0 || cr.Tested == 0 {
		t.Error("compose should have dropped pieces and tested configurations")
	}
	if cr.Stats.StaticSingle == 0 {
		t.Error("composed configuration replaced nothing")
	}
	if cr.Stats.StaticSingle >= res.Stats.StaticSingle {
		t.Error("composition should replace strictly less than the failing union")
	}
	// The composed configuration really passes (checked via the fallback
	// pipeline, independently of the engine Compose used).
	out, err := legacyEvaluator{t: tgt}.evaluate(evalRequest{eff: cr.Config.Effective()})
	if err != nil {
		t.Fatal(err)
	}
	if !out.pass {
		t.Error("composed configuration does not verify")
	}
}

func TestComposeNoopWhenUnionPasses(t *testing.T) {
	m := mixedProgram(t)
	tgt := Target{Module: m, Verify: refVerify(t, m, 1e-10)}
	res, err := Run(tgt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FinalPass {
		t.Skip("union failed unexpectedly")
	}
	cr, err := Compose(tgt, res)
	if err != nil {
		t.Fatal(err)
	}
	if !cr.Pass || cr.Tested != 0 || len(cr.Dropped) != 0 {
		t.Errorf("compose on passing union: pass=%v tested=%d dropped=%d",
			cr.Pass, cr.Tested, len(cr.Dropped))
	}
	if cr.Stats != res.Stats {
		t.Error("stats should be unchanged")
	}
}

// TestComposeDropsCheapestFirst checks the greedy order: the piece with
// the smaller profile weight goes first.
func TestComposeDropsCheapestFirst(t *testing.T) {
	tgt, _ := interactingProgram(t)
	res, err := Run(tgt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalPass {
		t.Skip("union passed")
	}
	cr, err := Compose(tgt, res)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(cr.Dropped); i++ {
		if cr.Dropped[i-1].Weight > cr.Dropped[i].Weight {
			t.Error("pieces not dropped in ascending weight order")
		}
	}
	_ = replace.Flag // keep import for documentation symmetry
}

// TestBTFinalUnionNonIndependence pins the root cause of bt.W's
// "final verification: fail" in the benchmark table (BENCH_*.json
// FinalPass: false): per-piece verdicts are not independent. Every piece
// the search accepts passes verification in isolation, but the union of
// all of them fails — each lowered region contributes rounding error
// under the tolerance, and only their sum crosses it. That is exactly
// the interaction §3.1 anticipates, and the second search phase recovers
// a passing composed configuration by dropping pieces (fpsearch
// -compose). Not a search bug: the regression this test guards against
// is the union failing while some piece also fails alone, or Compose
// failing to recover.
func TestBTFinalUnionNonIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("bt.W search in -short mode")
	}
	tgt := kernelTarget(t, "bt")
	res, err := Run(tgt, Options{Workers: 4, BinarySplit: true, Prioritize: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalPass {
		t.Fatal("bt.W final union passes now — the documented non-independence is gone; update BENCH notes and this test")
	}
	ev := legacyEvaluator{t: tgt}
	ignored := make(map[uint64]bool, len(res.Unsafe))
	for _, u := range res.Unsafe {
		ignored[u] = true
	}
	for _, p := range res.Passing {
		out, err := ev.evaluate(evalRequest{eff: effFor(p.Addrs, ignored)})
		if err != nil {
			t.Fatal(err)
		}
		if !out.pass {
			t.Errorf("piece %s fails in isolation: the union failure is not pure non-independence", p.Label)
		}
	}
	cr, err := Compose(tgt, res)
	if err != nil {
		t.Fatal(err)
	}
	if !cr.Pass {
		t.Error("second phase failed to recover a passing configuration")
	}
	if cr.Pass && cr.Stats.StaticPct <= 0 {
		t.Error("recovered configuration replaces nothing")
	}
	t.Logf("bt.W: %d passing pieces, union fails, compose drops %d and passes at %.1f%% static",
		len(res.Passing), len(cr.Dropped), cr.Stats.StaticPct)
}
