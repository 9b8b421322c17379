package vm_test

import (
	"testing"

	"fpmix/internal/config"
	"fpmix/internal/kernels"
	"fpmix/internal/prog"
	"fpmix/internal/replace"
	"fpmix/internal/vm"
)

// TestFusePatternsFireOnKernels keeps every pattern superinstruction and
// terminator fold alive: each must execute at least once on the seven
// searched class-W kernels, linked as built or wrapped all double or all
// single, or assembled from their stable layouts as the fork-point
// engine does (every site bare, wrapped and bare sites alternating, every
// site single), where FP arithmetic sits alone in its slot and fuses
// across slot boundaries; the FP families and the folds must execute in
// those assemblies. A pattern that no longer matches what code
// generation or the snippet compiler emits fails here instead of
// silently costing a match attempt per instruction.
func TestFusePatternsFireOnKernels(t *testing.T) {
	fired, assembled := map[string]bool{}, map[string]bool{}
	run := func(label string, lp *vm.Program, max uint64, fired map[string]bool) {
		m := lp.NewMachine()
		m.MaxSteps = max
		if err := m.Run(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for p := range vm.FiredPatterns(lp, m.Counts()) {
			fired[p] = true
		}
	}
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
			run(name+"/"+v, lp, bench.MaxSteps, fired)
		}

		cs, err := replace.Precompile(bench.Module, replace.InstrumentOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sp, err := cs.Stable()
		if err != nil {
			t.Fatal(err)
		}
		sites := make([]vm.IncrementalSite, len(sp.Sites))
		for i, s := range sp.Sites {
			sites[i] = vm.IncrementalSite{Addr: s.Addr, Variants: s.Variants}
		}
		il, err := vm.NewIncrementalLinker(sp.Skeleton, sites)
		if err != nil {
			t.Fatal(err)
		}
		for v, pick := range map[string]func(k int) int{
			"bare":        func(int) int { return replace.VariantBare },
			"alternating": func(k int) int { return k % 2 * replace.VariantBare },
			"single":      func(int) int { return replace.VariantSingle },
		} {
			ch := make([]int, len(sites))
			for k, s := range sp.Sites {
				if ch[k] = pick(k); s.Variants[ch[k]] == nil {
					ch[k] = replace.VariantDouble
				}
			}
			lp, err := il.Assemble(nil, ch)
			if err != nil {
				t.Fatal(err)
			}
			run(name+"/assembled "+v, lp, bench.MaxSteps, assembled)
		}
	}
	for _, p := range vm.PatternNames() {
		if !fired[p] && !assembled[p] {
			t.Errorf("pattern %s never executed on the class-W kernels", p)
		}
	}
	for _, p := range vm.CrossSlotPatterns() {
		if !assembled[p] {
			t.Errorf("pattern %s never executed in a fork-point assembly of the class-W kernels", p)
		}
	}
}
