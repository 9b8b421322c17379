package search

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"fpmix/internal/config"
	"fpmix/internal/faultinject"
	"fpmix/internal/kernels"
	"fpmix/internal/shadow"
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
			got, _, err := profileRun(tgt, nil)
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

// TestShadowBaselineMatchesProfileRun: the shadow pass doubles as the
// profiling run, so on every class-W search kernel the counts it keeps
// must equal profileRun's and its outputs must pass the kernel's
// verification. On the short searches, a search given the live profile
// (no profiling run of its own) and one given the same profile read
// back from the text format (which carries no baseline, so Run
// profiles) must agree.
func TestShadowBaselineMatchesProfileRun(t *testing.T) {
	// The two searches per kernel are the slow part, so lu, bt and sp
	// (the long searches) check only the baseline.
	searched := map[string]bool{"ep": true, "mg": true, "ft": !testing.Short(), "cg": !testing.Short()}
	for _, name := range []string{"ep", "ft", "cg", "mg", "lu", "bt", "sp"} {
		t.Run(name, func(t *testing.T) {
			b, err := kernels.Get(name, kernels.ClassW)
			if err != nil {
				t.Fatal(err)
			}
			tgt := Target{Module: b.Module, Verify: b.Verify, MaxSteps: b.MaxSteps, Base: b.Base}
			live, err := shadow.Collect(name+".W", b.Module, b.MaxSteps)
			if err != nil {
				t.Fatal(err)
			}
			counts, out, ok := live.Baseline(b.Module, b.MaxSteps)
			if !ok {
				t.Fatal("a live profile carries no baseline for its own module")
			}
			want, ran, err := profileRun(tgt, nil)
			if err != nil || ran != 1 {
				t.Fatalf("profileRun: %d runs, %v", ran, err)
			}
			if !reflect.DeepEqual(counts, want) {
				t.Errorf("shadow baseline counts differ from the profiling run's (%d vs %d addresses)", len(counts), len(want))
			}
			if !b.Verify(out) {
				t.Error("shadow baseline outputs fail the kernel's verification")
			}
			if _, _, ok := live.Baseline(b.Module, b.MaxSteps+1); ok {
				t.Error("baseline served for another step budget")
			}
			if !searched[name] {
				return
			}
			var buf bytes.Buffer
			if err := shadow.Write(&buf, live); err != nil {
				t.Fatal(err)
			}
			read, err := shadow.Read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{Workers: 2, Granularity: config.KindInsn, BinarySplit: true, Prioritize: true,
				SensThreshold: b.SensTol}
			run := func(sh *shadow.Profile) *Result {
				o := opts
				o.Shadow = sh
				res, err := Run(tgt, o)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, r := run(live), run(read)
			if a.ProfileRuns != 0 || r.ProfileRuns != 1 {
				t.Errorf("profiling runs: live %d, read %d; want 0, 1", a.ProfileRuns, r.ProfileRuns)
			}
			if a.Final.String() != r.Final.String() {
				t.Error("finals differ between the live and the read profile")
			}
			if a.Tested != r.Tested || a.MemoHits != r.MemoHits || a.Stats != r.Stats {
				t.Errorf("live: tested %d memo %d stats %+v; read: tested %d memo %d stats %+v",
					a.Tested, a.MemoHits, a.Stats, r.Tested, r.MemoHits, r.Stats)
			}
			if !reflect.DeepEqual(a.Profile, r.Profile) {
				t.Error("Result.Profile differs between the live and the read profile")
			}
		})
	}
}
