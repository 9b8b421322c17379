package vm_test

import (
	"testing"

	"fpmix/internal/config"
	"fpmix/internal/kernels"
	"fpmix/internal/prog"
	"fpmix/internal/replace"
	"fpmix/internal/vm"
)

// TestFusePatternsFireOnKernels keeps every pattern superinstruction
// alive: each must execute at least once on the seven searched class-W
// kernels, as built or wrapped all double or all single. A pattern that
// no longer matches what code generation or the snippet compiler emits
// fails here instead of silently costing a match attempt per instruction.
func TestFusePatternsFireOnKernels(t *testing.T) {
	fired := map[string]bool{}
	for _, name := range []string{"bt", "cg", "ep", "ft", "lu", "mg", "sp"} {
		bench, err := kernels.Get(name, kernels.ClassW)
		if err != nil {
			t.Fatal(err)
		}
		variants := map[string]*prog.Module{"base": bench.Module}
		for _, p := range []config.Precision{config.Double, config.Single} {
			c, err := config.FromModule(bench.Module)
			if err != nil {
				t.Fatal(err)
			}
			c.SetAll(p)
			inst, err := replace.Instrument(bench.Module, c, replace.InstrumentOptions{})
			if err != nil {
				t.Fatal(err)
			}
			variants[p.String()] = inst
		}
		for v, mod := range variants {
			lp, err := vm.Link(mod)
			if err != nil {
				t.Fatal(err)
			}
			m := lp.NewMachine()
			m.MaxSteps = bench.MaxSteps
			if err := m.Run(); err != nil {
				t.Fatalf("%s/%s: %v", name, v, err)
			}
			for p := range vm.FiredPatterns(lp, m.Counts()) {
				fired[p] = true
			}
		}
	}
	for _, p := range vm.PatternNames() {
		if !fired[p] {
			t.Errorf("pattern %s never executed on the class-W kernels", p)
		}
	}
}
