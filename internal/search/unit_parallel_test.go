package search

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// recordingUnits forwards every unit to a shared UnitRunner (the exact
// wiring a fleet worker uses) and records the (unit, verdict) pairs.
type recordingUnits struct {
	r  *UnitRunner
	mu sync.Mutex

	units    []EvalUnit
	verdicts []Verdict
}

func (e *recordingUnits) EvaluateUnit(u EvalUnit) (Verdict, error) {
	v, err := e.r.Evaluate(u)
	if err != nil {
		return v, err
	}
	e.mu.Lock()
	e.units = append(e.units, u)
	e.verdicts = append(e.verdicts, v)
	e.mu.Unlock()
	return v, nil
}

// TestUnitRunnerParallelEvaluate pins the concurrency contract fleet
// workers with -parallel depend on: one shared UnitRunner under
// fork-point evaluation must settle units from many goroutines at once
// — donor runs, snapshot restores and the final-union composition
// included — with verdicts identical to what the serial search saw.
// Run under -race this covers the fork/snapshot paths' locking.
func TestUnitRunnerParallelEvaluate(t *testing.T) {
	m := mixedProgram(t)
	tgt := Target{Module: m, Verify: refVerify(t, m, 1e-10)}

	// Record every unit a real (binary-split, prioritized) search
	// evaluates, with its verdict, through a shared runner — already a
	// concurrent workload at Workers: 4.
	runner, err := NewUnitRunner(tgt, Options{Engine: EngineFork})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingUnits{r: runner}
	if _, err := Run(tgt, Options{
		Engine: EngineFork, BinarySplit: true, Prioritize: true,
		Workers: 4, Units: rec,
	}); err != nil {
		t.Fatal(err)
	}
	if len(rec.units) < 3 {
		t.Fatalf("only %d units recorded; need a few to exercise concurrency", len(rec.units))
	}
	hasFinal := false
	for _, u := range rec.units {
		if u.Final {
			hasFinal = true
		}
	}
	if !hasFinal {
		t.Fatal("no final-union unit recorded — snapshot-restore coverage lost")
	}

	// Re-evaluate every recorded unit from many goroutines over one
	// fresh shared runner, each lane in a different order, so donor runs
	// and snapshot restores collide. Every verdict must match the
	// search's.
	fresh, err := NewUnitRunner(tgt, Options{Engine: EngineFork})
	if err != nil {
		t.Fatal(err)
	}
	const lanes = 8
	errs := make(chan error, lanes)
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			n := len(rec.units)
			for i := 0; i < n; i++ {
				idx := (i*(l+1) + l) % n // lane-specific evaluation order
				v, err := fresh.Evaluate(rec.units[idx])
				if err != nil {
					errs <- fmt.Errorf("lane %d unit %q: %v", l, rec.units[idx].Label, err)
					return
				}
				if v.Pass != rec.verdicts[idx].Pass {
					errs <- fmt.Errorf("lane %d unit %q: pass=%v, search saw %v",
						l, rec.units[idx].Label, v.Pass, rec.verdicts[idx].Pass)
					return
				}
			}
		}(l)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRunUnitsPathIdentical pins the one-evaluation-path contract: Run
// with no Options.Units evaluates through a UnitRunner built from its own
// options, so routing the same search through an explicit NewUnitRunner
// changes nothing — counters, the Eval sequence and the final bytes.
func TestRunUnitsPathIdentical(t *testing.T) {
	for _, name := range []string{"ep", "mg"} {
		t.Run(name, func(t *testing.T) {
			tgt := kernelTarget(t, name)
			opts := Options{Workers: 1, BinarySplit: true, Prioritize: true}
			local, err := Run(tgt, opts)
			if err != nil {
				t.Fatal(err)
			}
			runner, err := NewUnitRunner(tgt, opts)
			if err != nil {
				t.Fatal(err)
			}
			uo := opts
			uo.Units = &recordingUnits{r: runner}
			routed, err := Run(tgt, uo)
			if err != nil {
				t.Fatal(err)
			}
			counters := func(r *Result) [16]any {
				return [16]any{
					r.FinalPass, r.Candidates, r.Tested, r.MemoHits, r.CacheHits,
					r.PrunedCandidates, r.Predicted, r.Crashed, r.TimedOut, r.Retried,
					r.Injected, r.Resumed, r.Proved, r.Forked, r.PrefixInstrsSaved, r.Stats,
				}
			}
			if got, want := counters(routed), counters(local); got != want {
				t.Errorf("counters differ:\n routed %v\n local  %v", got, want)
			}
			type step struct {
				label        string
				prov         Provenance
				pass, forked bool
			}
			steps := func(r *Result) []step {
				var s []step
				for _, e := range r.Evals {
					s = append(s, step{e.Label, e.Prov, e.Pass, e.Forked})
				}
				return s
			}
			if got, want := steps(routed), steps(local); !reflect.DeepEqual(got, want) {
				t.Errorf("Eval sequences differ:\n routed %v\n local  %v", got, want)
			}
			if routed.Final.String() != local.Final.String() {
				t.Error("final configurations differ")
			}
		})
	}
}
