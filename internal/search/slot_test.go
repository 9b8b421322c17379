package search

import (
	"sync"
	"testing"

	"fpmix/internal/config"
)

// Evaluation slots: each evaluation in flight owns a machine, an assembly
// buffer and a flag query, kept on the engine's free list, so a warm
// evaluation allocates next to nothing.

// TestSlotEvaluationAllocs pins the allocations of a warm single-site
// fork-point evaluation on the kernels whose searches evaluation
// dominates: the slot's assembly, flag query and machine are reused, and
// what remains is the verifier's and the outcome's.
func TestSlotEvaluationAllocs(t *testing.T) {
	for _, name := range []string{"bt", "lu", "sp"} {
		t.Run(name, func(t *testing.T) {
			fe, err := newForkEngine(kernelTarget(t, name), false)
			if err != nil {
				t.Fatal(err)
			}
			d := fe.ensureDonor(fe.getSlot(), map[uint64]config.Precision{})
			if d == nil {
				t.Fatal("donor pass unavailable")
			}
			// The site whose fork point comes last: the shortest suffix.
			site := -1
			for i := range fe.sites {
				if d.touch[i].snap != nil && (site < 0 || d.touch[i].steps > d.touch[site].steps) {
					site = i
				}
			}
			if site < 0 {
				t.Fatal("the donor touched no site")
			}
			req := evalRequest{eff: map[uint64]config.Precision{fe.sites[site].OldAddr: config.Single}}
			var out outcome
			allocs := testing.AllocsPerRun(5, func() {
				if out, err = fe.evaluate(req); err != nil {
					t.Fatal(err)
				}
			})
			if !out.forked {
				t.Fatal("the evaluation did not fork")
			}
			t.Logf("%s: %.0f allocations per warm evaluation", name, allocs)
			if allocs > 16 {
				t.Errorf("%s: %.0f allocations per warm single-site evaluation, want at most 16", name, allocs)
			}
		})
	}
}

// TestSlotConcurrentEvaluations evaluates single- and two-site
// configurations of mg from four goroutines sharing one engine, so slots
// pass between goroutines, configurations and fork points (run under
// -race), and requires every outcome to be the one a fresh engine
// reaches for that configuration alone.
func TestSlotConcurrentEvaluations(t *testing.T) {
	tgt := kernelTarget(t, "mg")
	shared, err := newForkEngine(tgt, false)
	if err != nil {
		t.Fatal(err)
	}
	var effs []map[uint64]config.Precision
	for i := 0; i < len(shared.sites) && len(effs) < 12; i += 5 {
		eff := map[uint64]config.Precision{shared.sites[i].OldAddr: config.Single}
		if j := i + 2; len(effs)%3 == 2 && j < len(shared.sites) {
			eff[shared.sites[j].OldAddr] = config.Single
		}
		effs = append(effs, eff)
	}
	want := make([]outcome, len(effs))
	for i, eff := range effs {
		fresh, err := newForkEngine(tgt, false)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = fresh.evaluate(evalRequest{eff: eff}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 2*len(effs); k++ {
				i := (k + 3*g) % len(effs)
				got, err := shared.evaluate(evalRequest{eff: effs[i]})
				if err != nil {
					t.Error(err)
					return
				}
				if !sameOutcome(got, want[i]) {
					t.Errorf("goroutine %d, configuration %d: %+v, a fresh engine %+v", g, i, got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}

// sameOutcome compares two outcomes, faults by kind and address.
func sameOutcome(a, b outcome) bool {
	if (a.fault == nil) != (b.fault == nil) {
		return false
	}
	if a.fault != nil && (a.fault.Kind != b.fault.Kind || a.fault.PC != b.fault.PC) {
		return false
	}
	return a.pass == b.pass && a.forked == b.forked && a.prefixSaved == b.prefixSaved
}
