package search

import (
	"strings"
	"testing"

	"fpmix/internal/shadow"
)

func collectShadow(t *testing.T) (*Target, *shadow.Profile) {
	t.Helper()
	m := mixedProgram(t)
	tgt := &Target{Module: m, Verify: refVerify(t, m, 1e-10)}
	sh, err := shadow.Collect("mixed", m, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tgt, sh
}

func TestSensitivityOrdersSafestFirst(t *testing.T) {
	tgt, sh := collectShadow(t)
	res, err := Run(*tgt, Options{Workers: 1, Shadow: sh})
	if err != nil {
		t.Fatal(err)
	}
	// After the module fails, the safe function (zero predicted error)
	// must be tried before the sensitive one.
	var funcs []string
	for _, e := range res.Evals {
		if strings.HasPrefix(e.Label, "func ") {
			funcs = append(funcs, e.Label)
		}
	}
	if len(funcs) < 2 {
		t.Fatalf("func evals = %v, want both functions", funcs)
	}
	if funcs[0] != "func safe" {
		t.Errorf("first function tried = %q, want the safe one", funcs[0])
	}
}

func TestSensitivityGatePredictsFailures(t *testing.T) {
	tgt, sh := collectShadow(t)
	base, err := Run(*tgt, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(*tgt, Options{Workers: 1, Shadow: sh, SensThreshold: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Predicted == 0 {
		t.Error("gate predicted nothing; the sensitive accumulator should gate")
	}
	if res.Tested >= base.Tested {
		t.Errorf("sensitivity tested %d configurations, baseline %d — want strictly fewer", res.Tested, base.Tested)
	}
	if res.FinalPass != base.FinalPass {
		t.Errorf("FinalPass %v != baseline %v", res.FinalPass, base.FinalPass)
	}
	if got, want := res.Final.String(), base.Final.String(); got != want {
		t.Errorf("final configuration differs from baseline:\n--- sensitivity:\n%s--- baseline:\n%s", got, want)
	}
}

func TestEvalProvenanceAccounting(t *testing.T) {
	tgt, sh := collectShadow(t)
	res, err := Run(*tgt, Options{Workers: 1, Shadow: sh, SensThreshold: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	var evaluated, predicted int
	for _, e := range res.Evals {
		switch e.Prov {
		case ProvEvaluated:
			evaluated++
			if e.Wall <= 0 {
				t.Errorf("evaluated piece %q has no wall time", e.Label)
			}
		case ProvPredicted:
			predicted++
			if e.Pass {
				t.Errorf("predicted piece %q recorded as passing", e.Label)
			}
			if e.Wall != 0 {
				t.Errorf("predicted piece %q has wall time %v", e.Label, e.Wall)
			}
		}
	}
	if evaluated != res.Tested {
		t.Errorf("ProvEvaluated records = %d, Tested = %d", evaluated, res.Tested)
	}
	if predicted != res.Predicted {
		t.Errorf("ProvPredicted records = %d, Predicted = %d", predicted, res.Predicted)
	}
	if res.Evals[len(res.Evals)-1].Label != "final union" {
		t.Errorf("last eval = %q, want final union", res.Evals[len(res.Evals)-1].Label)
	}
}
