package replace_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"fpmix/internal/config"
	"fpmix/internal/kernels"
	"fpmix/internal/prog"
	"fpmix/internal/replace"
	"fpmix/internal/vm"
)

// effMaps builds representative effective-precision maps over the
// module's candidates: all single, all double, empty (default double),
// and a rotation mixing single/double/ignore.
func effMaps(m *prog.Module) map[string]map[uint64]config.Precision {
	cands := m.Candidates()
	allS := make(map[uint64]config.Precision, len(cands))
	allD := make(map[uint64]config.Precision, len(cands))
	mixed := make(map[uint64]config.Precision, len(cands))
	rot := []config.Precision{config.Single, config.Double, config.Ignore}
	for i, a := range cands {
		allS[a] = config.Single
		allD[a] = config.Double
		mixed[a] = rot[i%len(rot)]
	}
	return map[string]map[uint64]config.Precision{
		"single": allS,
		"double": allD,
		"empty":  {},
		"mixed":  mixed,
	}
}

// stableChoices maps eff to the stable layout's variant vector, failing
// exactly when eff selects a variant whose snippet generation failed.
func stableChoices(sp *replace.StableProgram, eff map[uint64]config.Precision) ([]int, error) {
	ch := make([]int, len(sp.Sites))
	for i, s := range sp.Sites {
		p, ok := eff[s.OldAddr]
		if !ok {
			p = config.Double
		}
		ch[i] = replace.VariantFor(p)
		switch {
		case ch[i] == replace.VariantSingle && s.SingleErr != nil:
			return nil, s.SingleErr
		case ch[i] == replace.VariantDouble && s.DoubleErr != nil:
			return nil, s.DoubleErr
		}
	}
	return ch, nil
}

// TestPrecompileMatchesInstrumentMap is the execution differential of the
// precompiled stable layout against from-scratch instrumentation: on every
// kernel, across precision mixes and snippet option variants, the slotted
// program assembled with VariantFor choices runs with the same outputs,
// steps, cycles and fault kind and op as InstrumentMap's packed program.
// Only instruction addresses differ between the two layouts.
func TestPrecompileMatchesInstrumentMap(t *testing.T) {
	optVariants := map[string]replace.InstrumentOptions{
		"default":   {},
		"elision":   {Snippet: replace.Options{LivenessElision: true}},
		"unchecked": {Snippet: replace.Options{UncheckedDowncast: true}},
	}
	for _, name := range kernels.Names() {
		bench, err := kernels.Get(name, kernels.ClassW)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := replace.Precompile(bench.Module, replace.InstrumentOptions{SkipDoubleSnippets: true})
		if err != nil {
			t.Fatalf("%s/skipdbl: precompile: %v", name, err)
		}
		if _, err := cs.Stable(); err == nil || !strings.Contains(err.Error(), "requires double snippets") {
			t.Errorf("%s/skipdbl: Stable() = %v, want the missing-double-snippets error", name, err)
		}
		for oname, opts := range optVariants {
			cs, err := replace.Precompile(bench.Module, opts)
			if err != nil {
				t.Fatalf("%s/%s: precompile: %v", name, oname, err)
			}
			sp, err := cs.Stable()
			if err != nil {
				t.Fatalf("%s/%s: stable: %v", name, oname, err)
			}
			sites := make([]vm.IncrementalSite, len(sp.Sites))
			for i, s := range sp.Sites {
				sites[i] = vm.IncrementalSite{Addr: s.Addr, Variants: s.Variants}
			}
			il, err := vm.NewIncrementalLinker(sp.Skeleton, sites)
			if err != nil {
				t.Fatalf("%s/%s: incremental linker: %v", name, oname, err)
			}
			for ename, eff := range effMaps(bench.Module) {
				want, werr := replace.InstrumentMap(bench.Module, eff, opts)
				ch, gerr := stableChoices(sp, eff)
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("%s/%s/%s: error divergence: scratch=%v stable=%v",
						name, oname, ename, werr, gerr)
				}
				if werr != nil {
					continue
				}
				oracle, err := vm.New(want)
				if err != nil {
					t.Fatal(err)
				}
				oracle.MaxSteps = bench.MaxSteps
				oerr := oracle.Run()
				lp, err := il.Assemble(nil, ch)
				if err != nil {
					t.Fatal(err)
				}
				got := &vm.Machine{}
				got.ResetTo(lp)
				got.MaxSteps = bench.MaxSteps
				serr := got.Run()

				if !reflect.DeepEqual(got.Out, oracle.Out) {
					t.Errorf("%s/%s/%s: outputs differ from InstrumentMap", name, oname, ename)
				}
				if got.Steps != oracle.Steps || got.Cycles != oracle.Cycles {
					t.Errorf("%s/%s/%s: steps %d/%d cycles %d/%d", name, oname, ename,
						got.Steps, oracle.Steps, got.Cycles, oracle.Cycles)
				}
				var sf, of *vm.Fault
				errors.As(serr, &sf)
				errors.As(oerr, &of)
				if (serr == nil) != (oerr == nil) || (sf == nil) != (of == nil) ||
					sf != nil && (sf.Kind != of.Kind || sf.Op != of.Op) {
					t.Errorf("%s/%s/%s: stable err %v, InstrumentMap err %v", name, oname, ename, serr, oerr)
				}
			}
		}
	}
}
