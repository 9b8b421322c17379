package vm_test

import (
	"reflect"
	"sync"
	"testing"

	"fpmix/internal/kernels"
	"fpmix/internal/vm"
)

// TestShadowCompiledMatchesStepOnKernels pins the per-step shadow pass
// as the oracle of the compiled one: for every kernel at class W, a
// shadow run on the compiled tier and one with NoCompile report equal
// ShadowRecords, outputs, Steps and Cycles.
func TestShadowCompiledMatchesStepOnKernels(t *testing.T) {
	for _, name := range kernels.Names() {
		t.Run(name, func(t *testing.T) {
			b, err := kernels.Get(name, kernels.ClassW)
			if err != nil {
				t.Fatal(err)
			}
			lp, err := vm.Link(b.Module)
			if err != nil {
				t.Fatal(err)
			}
			run := func(noCompile bool) *vm.Machine {
				m := lp.NewMachine()
				m.NoCompile = noCompile
				m.MaxSteps = b.MaxSteps
				m.EnableShadow()
				if err := m.Run(); err != nil {
					t.Fatalf("NoCompile=%v: %v", noCompile, err)
				}
				return m
			}
			c, s := run(false), run(true)
			if !reflect.DeepEqual(c.ShadowRecords(), s.ShadowRecords()) {
				t.Error("compiled and per-step shadow records differ")
			}
			if !reflect.DeepEqual(c.Out, s.Out) || c.Steps != s.Steps || c.Cycles != s.Cycles {
				t.Errorf("compiled and per-step shadow runs differ: steps %d/%d, cycles %d/%d",
					c.Steps, s.Steps, c.Cycles, s.Cycles)
			}
		})
	}
}

// TestShadowStreamSharedAcrossMachines runs shadow machines on one
// Program from several goroutines at once: the shadow stream is built
// once, on first use, and shared, so every run reports the same records.
func TestShadowStreamSharedAcrossMachines(t *testing.T) {
	b, err := kernels.Get("ep", kernels.ClassW)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := vm.Link(b.Module)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([][]vm.ShadowRecord, 4)
	errs := make([]error, len(recs))
	var wg sync.WaitGroup
	for i := range recs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m := lp.NewMachine()
			m.MaxSteps = b.MaxSteps
			m.EnableShadow()
			errs[i] = m.Run()
			recs[i] = m.ShadowRecords()
		}(i)
	}
	wg.Wait()
	for i := range recs {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(recs[i], recs[0]) {
			t.Errorf("run %d's shadow records differ from run 0's", i)
		}
	}
}
