package experiments

import (
	"math"
	"testing"

	"fpmix/internal/kernels"
)

// The experiment drivers are exercised at class W (the fast class) so the
// full harness stays runnable in unit-test time.

func TestFig8ShapesHold(t *testing.T) {
	rows, err := Fig8(kernels.ClassW)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(kernels.MPIKernelNames()) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if len(row.Overhead) != len(Fig8Ranks) {
			t.Fatalf("%s: series length %d", row.Bench, len(row.Overhead))
		}
		for i, ov := range row.Overhead {
			if ov <= 1 || ov > 30 {
				t.Errorf("%s ranks=%d: overhead %.2fX out of plausible band", row.Bench, Fig8Ranks[i], ov)
			}
		}
		// Non-increasing within tolerance: the paper's headline trend.
		if last, first := row.Overhead[len(row.Overhead)-1], row.Overhead[0]; last > first*1.10 {
			t.Errorf("%s: overhead grew with ranks: %.2f -> %.2f", row.Bench, first, last)
		}
	}
}

func TestFig10RowSanity(t *testing.T) {
	rows, err := Fig10([]string{"mg"}, []kernels.Class{kernels.ClassW}, 8)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Candidates == 0 || r.Tested == 0 {
		t.Fatal("empty search result")
	}
	if r.StaticPct < 50 {
		t.Errorf("mg.W: static %.1f%% unexpectedly low", r.StaticPct)
	}
	if !r.FinalPass {
		t.Error("mg.W final should pass")
	}
}

func TestFig11Monotone(t *testing.T) {
	rows, err := Fig11(kernels.ClassW, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Fig11Thresholds) {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].StaticPct > rows[i-1].StaticPct+1e-9 {
			t.Errorf("static %% not monotone: %.1f -> %.1f at threshold %g",
				rows[i-1].StaticPct, rows[i].StaticPct, rows[i].Threshold)
		}
	}
	// The loosest threshold must allow most of the solver to be replaced.
	if rows[0].StaticPct < 50 {
		t.Errorf("loosest threshold replaced only %.1f%%", rows[0].StaticPct)
	}
	for _, r := range rows {
		if !math.IsNaN(r.FinalError) && r.FinalPass && r.FinalError > r.Threshold {
			t.Errorf("threshold %g: passing final error %g above bound", r.Threshold, r.FinalError)
		}
	}
}

func TestAMGExperiment(t *testing.T) {
	res, err := AMG(kernels.ClassW, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllSinglePass {
		t.Error("whole kernel must verify in single precision")
	}
	if res.SearchStaticPct != 100 {
		t.Errorf("search static = %.1f%%, want 100%%", res.SearchStaticPct)
	}
	if res.ManualSpeedup < 1.3 {
		t.Errorf("manual speedup %.2fX too small", res.ManualSpeedup)
	}
	if res.AnalysisOverhead <= 1 {
		t.Errorf("analysis overhead %.2fX implausible", res.AnalysisOverhead)
	}
}

func TestBitExactRows(t *testing.T) {
	rows, err := BitExact(kernels.ClassW)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no convertible kernels")
	}
	for _, r := range rows {
		if !r.Match {
			t.Errorf("%s.%s: instrumented all-single differs from manual conversion", r.Bench, r.Class)
		}
		if r.Outputs == 0 {
			t.Errorf("%s.%s: no outputs compared", r.Bench, r.Class)
		}
	}
}

func TestSensDifferential(t *testing.T) {
	// The gate's acceptance bar: across every serial NAS kernel the guided
	// search must compose a byte-identical final configuration while
	// testing no more — and on at least two kernels strictly fewer —
	// configurations than the baseline. workers=1 keeps both trajectories
	// deterministic.
	if testing.Short() {
		t.Skip("full-kernel differential is slow")
	}
	rows, err := Sens(Fig10Benches, kernels.ClassW, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Fig10Benches) {
		t.Fatalf("rows = %d, want %d", len(rows), len(Fig10Benches))
	}
	fewer := 0
	for _, r := range rows {
		if !r.Identical {
			t.Errorf("%s.%s: guided final configuration differs from baseline", r.Bench, r.Class)
		}
		if r.TestedSens > r.TestedBase {
			t.Errorf("%s.%s: guided search tested more (%d) than baseline (%d)",
				r.Bench, r.Class, r.TestedSens, r.TestedBase)
		}
		// Every predicted failure replaces exactly one evaluation; the
		// trajectories otherwise coincide.
		if r.TestedBase-r.TestedSens != r.Predicted {
			t.Errorf("%s.%s: tested %d->%d but %d predicted",
				r.Bench, r.Class, r.TestedBase, r.TestedSens, r.Predicted)
		}
		if r.TestedSens < r.TestedBase {
			fewer++
		}
	}
	if fewer < 2 {
		t.Errorf("sensitivity guidance cut tested configs on only %d kernels, want >= 2", fewer)
	}
}

func TestFig10BenchesAreKnown(t *testing.T) {
	known := map[string]bool{}
	for _, n := range kernels.Names() {
		known[n] = true
	}
	for _, n := range Fig10Benches {
		if !known[n] {
			t.Errorf("Fig10 bench %q not registered", n)
		}
	}
}
