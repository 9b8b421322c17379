package report

import (
	"strings"
	"testing"

	"fpmix/internal/experiments"
)

func TestFig8Format(t *testing.T) {
	var sb strings.Builder
	Fig8(&sb, []experiments.Fig8Row{
		{Bench: "ep", Ranks: experiments.Fig8Ranks, Overhead: []float64{3.5, 3.4, 3.3, 3.2}},
	})
	out := sb.String()
	for _, want := range []string{"Figure 8", "ep", "3.5X", "3.2X"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFig10Format(t *testing.T) {
	var sb strings.Builder
	Fig10(&sb, []experiments.Fig10Row{
		{Bench: "bt", Class: "W", Candidates: 221, Tested: 119,
			StaticPct: 95.5, DynamicPct: 93.4, FinalPass: false},
		{Bench: "cg", Class: "W", Candidates: 31, Tested: 23,
			StaticPct: 80.6, DynamicPct: 27.4, FinalPass: true},
	})
	out := sb.String()
	for _, want := range []string{"bt.W", "fail", "cg.W", "pass", "95.5%", "27.4%"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFig11Format(t *testing.T) {
	var sb strings.Builder
	Fig11(&sb, []experiments.Fig11Row{
		{Threshold: 1e-3, StaticPct: 94.4, DynamicPct: 58.3, FinalError: 8.9e-7, FinalPass: true},
	})
	out := sb.String()
	for _, want := range []string{"1.0e-03", "94.4%", "pass"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestAMGAndBitExactFormat(t *testing.T) {
	var sb strings.Builder
	AMG(&sb, &experiments.AMGResult{
		AllSinglePass: true, AnalysisOverhead: 3.6, ManualSpeedup: 1.55,
		SearchStaticPct: 100, SearchFinalPass: true,
	})
	if !strings.Contains(sb.String(), "1.55X") || !strings.Contains(sb.String(), "100.0%") {
		t.Errorf("AMG format:\n%s", sb.String())
	}
	sb.Reset()
	BitExact(&sb, []experiments.BitExactRow{
		{Bench: "amg", Class: "W", Outputs: 1, Match: true},
		{Bench: "superlu", Class: "W", Outputs: 2, Match: false},
	})
	if !strings.Contains(sb.String(), "identical") || !strings.Contains(sb.String(), "MISMATCH") {
		t.Errorf("BitExact format:\n%s", sb.String())
	}
	sb.Reset()
	Rule(&sb)
	if len(strings.TrimSpace(sb.String())) == 0 {
		t.Error("empty rule")
	}
}

// columns maps each header of a rendered table to the cell of the row
// whose first field is key, failing unless the row fills every column.
func columns(t *testing.T, out, key string) map[string]string {
	t.Helper()
	var header, row []string
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) > 0 && f[0] == "Benchmark":
			header = f
		case len(f) > 0 && f[0] == key:
			row = f
		}
	}
	if header == nil || len(row) != len(header) {
		t.Fatalf("row %q has %d cells for header %q in:\n%s", key, len(row), header, out)
	}
	cells := make(map[string]string, len(header))
	for i, h := range header {
		cells[h] = row[i]
	}
	return cells
}

func TestSensFormat(t *testing.T) {
	var sb strings.Builder
	Sens(&sb, []experiments.SensRow{
		{Bench: "ep", Class: "W", TestedBase: 27, TestedSens: 25, Predicted: 2,
			MaxErr: 1.5e-5, Identical: true, FinalPass: true},
		{Bench: "bt", Class: "W", TestedBase: 118, TestedSens: 118,
			MaxErr: 0.25, Identical: false, FinalPass: false},
	})
	out := sb.String()
	if !strings.HasPrefix(out, "Sensitivity-guided search ablation") {
		t.Errorf("missing title in:\n%s", out)
	}
	for key, want := range map[string]map[string]string{
		"ep.W": {"Tested-base": "27", "Tested-sens": "25", "Predicted": "2",
			"MaxErr": "1.5e-05", "Same": "yes", "Final": "pass"},
		"bt.W": {"Tested-base": "118", "Tested-sens": "118", "Predicted": "0",
			"MaxErr": "0.25", "Same": "DIFF", "Final": "fail"},
	} {
		got := columns(t, out, key)
		for col, v := range want {
			if got[col] != v {
				t.Errorf("%s %s = %q, want %q in:\n%s", key, col, got[col], v, out)
			}
		}
	}
}

func TestBoundsFormat(t *testing.T) {
	var sb strings.Builder
	rows := []experiments.BoundsRow{
		{Bench: "ft", Class: "W", NoProveNS: 24_600_000, ProveNS: 25_400_000, SpeedupX: 0.97,
			TestedNoProve: 48, TestedProve: 45, Proved: 3, Identical: true, FinalPass: true},
		{Bench: "bt", Class: "W", NoProveNS: 206_300_000, ProveNS: 199_000_000, SpeedupX: 1.04,
			TestedNoProve: 118, TestedProve: 117, Proved: 1, Identical: false, FinalPass: false},
	}
	Bounds(&sb, rows)
	out := sb.String()
	if !strings.HasPrefix(out, "Error-bound prover ablation") {
		t.Errorf("missing title in:\n%s", out)
	}
	for key, want := range map[string]map[string]string{
		"ft.W": {"NoProve-ms": "24.6", "Prove-ms": "25.4", "Speedup": "0.97x",
			"TestedOff": "48", "TestedOn": "45", "Proved": "3", "Same": "yes", "Final": "pass"},
		"bt.W": {"NoProve-ms": "206.3", "Prove-ms": "199.0", "Speedup": "1.04x",
			"TestedOff": "118", "TestedOn": "117", "Proved": "1", "Same": "DIFF", "Final": "fail"},
	} {
		got := columns(t, out, key)
		for col, v := range want {
			if got[col] != v {
				t.Errorf("%s %s = %q, want %q in:\n%s", key, col, got[col], v, out)
			}
		}
	}
}
