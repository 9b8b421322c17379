package search

import (
	"reflect"
	"testing"
	"time"

	"fpmix/internal/faultinject"
	"fpmix/internal/kernels"
	"fpmix/internal/vm"
)

// The compiled execution engine is the default evaluation path; these
// tests pin the acceptance property that it changes nothing but speed:
// search finals on real kernels are byte-identical between compiled and
// -nocompile runs, including runs with chaos-armed injected traps (which
// route each armed evaluation to the instrumented tier mid-search).

func TestCompiledSearchIdenticalOnKernels(t *testing.T) {
	names := []string{"ep", "mg"}
	if !testing.Short() {
		names = append(names, "lu")
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			tgt := kernelTarget(t, name)
			opts := Options{Workers: 4, BinarySplit: true, Prioritize: true}
			compiled, err := Run(tgt, opts)
			if err != nil {
				t.Fatal(err)
			}
			nc := opts
			nc.NoCompile = true
			interp, err := Run(tgt, nc)
			if err != nil {
				t.Fatal(err)
			}
			if compiled.Final.String() != interp.Final.String() {
				t.Error("compiled engine changed the final configuration")
			}
			if compiled.FinalPass != interp.FinalPass {
				t.Errorf("compiled engine changed the final verdict: %v vs %v",
					compiled.FinalPass, interp.FinalPass)
			}
			if compiled.Tested != interp.Tested {
				t.Errorf("compiled engine changed the trajectory: %d vs %d evaluations",
					compiled.Tested, interp.Tested)
			}
		})
	}
}

func TestCompiledSearchIdenticalUnderChaos(t *testing.T) {
	names := []string{"ep", "mg"}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			tgt := kernelTarget(t, name)
			base := Options{
				Workers: 4, BinarySplit: true, Prioritize: true,
				Chaos:   faultinject.New(42, faultinject.DefaultRates, 5*time.Millisecond),
				Backoff: time.Millisecond,
			}
			compiled, err := Run(tgt, base)
			if err != nil {
				t.Fatal(err)
			}
			nc := base
			nc.Chaos = faultinject.New(42, faultinject.DefaultRates, 5*time.Millisecond)
			nc.NoCompile = true
			interp, err := Run(tgt, nc)
			if err != nil {
				t.Fatal(err)
			}
			if compiled.Final.String() != interp.Final.String() {
				t.Error("chaos-armed compiled run changed the final configuration")
			}
			if compiled.FinalPass != interp.FinalPass {
				t.Errorf("chaos-armed compiled run changed the final verdict: %v vs %v",
					compiled.FinalPass, interp.FinalPass)
			}
			t.Logf("%s: %d injected faults, identical finals", name, compiled.Injected)
		})
	}
}

// TestProfileRunMatchesInterpreter: the profiling run executes on the
// compiled tier; its per-address counts must equal the per-step
// interpreter's on every kernel, since they weight and prune the search.
func TestProfileRunMatchesInterpreter(t *testing.T) {
	for _, name := range kernels.Names() {
		t.Run(name, func(t *testing.T) {
			tgt := kernelTarget(t, name)
			got, err := profileRun(tgt)
			if err != nil {
				t.Fatal(err)
			}
			m, err := vm.New(tgt.Module)
			if err != nil {
				t.Fatal(err)
			}
			m.MaxSteps = tgt.MaxSteps
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if want := m.Profile(); !reflect.DeepEqual(got, want) {
				t.Errorf("compiled profile differs from the interpreter's (%d vs %d addresses)", len(got), len(want))
			}
		})
	}
}
