package search

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"fpmix/internal/config"
	"fpmix/internal/dataflow"
	"fpmix/internal/errbound"
	"fpmix/internal/kernels"
	"fpmix/internal/shadow"
)

// analysisCounts snapshots the process's supergraph builds, dataflow
// analyses and error-bound analyses.
func analysisCounts() [3]int64 {
	return [3]int64{dataflow.GraphBuilds(), dataflow.Analyses(), errbound.Analyses()}
}

func analysisSince(before [3]int64) [3]int64 {
	after := analysisCounts()
	for i := range after {
		after[i] -= before[i]
	}
	return after
}

// TestImageMemoColdSearch searches a fresh class-W module the way an
// in-process client does — unit runner first, then Run with the runner
// as its evaluator — and pins one supergraph build, one dataflow
// analysis and one error-bound analysis. A second search of the same
// module analyzes nothing, launches no unit for the prover (its bounds
// are ready at once) and composes the same result.
func TestImageMemoColdSearch(t *testing.T) {
	b, err := kernels.Get("ep", kernels.ClassW)
	if err != nil {
		t.Fatal(err)
	}
	tgt := Target{Module: b.Module, Verify: b.Verify, MaxSteps: b.MaxSteps, Base: b.Base}
	sh, err := shadow.Collect("ep.W", b.Module, b.MaxSteps)
	if err != nil {
		t.Fatal(err)
	}
	search := func() (*Result, int) {
		t.Helper()
		runner, err := NewUnitRunner(tgt, Options{Engine: EngineFork})
		if err != nil {
			t.Fatal(err)
		}
		units := &recordingUnits{r: runner}
		res, err := Run(tgt, Options{
			Workers: 2, Granularity: config.KindInsn, BinarySplit: true, Prioritize: true,
			Engine: EngineFork, Shadow: sh, SensThreshold: b.SensTol, Units: units,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, len(units.units)
	}
	const names = "supergraph builds/dataflow analyses/bound analyses"
	before := analysisCounts()
	cold, _ := search()
	if got, want := analysisSince(before), [3]int64{1, 1, 1}; got != want {
		t.Errorf("cold search: %s = %v, want %v", names, got, want)
	}
	if cold.Proved == 0 {
		t.Fatal("search proved nothing: the prover never ran")
	}
	before = analysisCounts()
	warm, units := search()
	if got := analysisSince(before); got != [3]int64{} {
		t.Errorf("repeat search: %s = %v, want none", names, got)
	}
	if warm.Final.String() != cold.Final.String() || warm.FinalPass != cold.FinalPass ||
		warm.Tested != cold.Tested || warm.Proved != cold.Proved {
		t.Errorf("repeat search differs: tested/proved %d/%d vs %d/%d", warm.Tested, warm.Proved, cold.Tested, cold.Proved)
	}
	if units != warm.Tested {
		t.Errorf("repeat search evaluated %d units for %d tested configurations: a unit ran for the prover", units, warm.Tested)
	}
}

// TestImageMemoMatchesUncached: on every class-W kernel, the analyses a
// module memoizes — computed on one shared supergraph, in an order where
// the flag analysis builds it — equal those of a fresh clone analyzed in
// the other order, and both modules' flag queries give the same answers
// for random single sets.
func TestImageMemoMatchesUncached(t *testing.T) {
	for _, name := range kernels.Names() {
		t.Run(name, func(t *testing.T) {
			b, err := kernels.Get(name, kernels.ClassW)
			if err != nil {
				t.Fatal(err)
			}
			m := b.Module
			fa, err := dataflow.NewFlagAnalysis(m)
			if err != nil {
				t.Fatal(err)
			}
			an, err := errbound.Analyze(m, errbound.Options{})
			if err != nil {
				t.Fatal(err)
			}
			r, err := dataflow.Analyze(m)
			if err != nil {
				t.Fatal(err)
			}

			c := m.Clone()
			cr, err := dataflow.Analyze(c)
			if err != nil {
				t.Fatal(err)
			}
			can, err := errbound.Analyze(c, errbound.Options{})
			if err != nil {
				t.Fatal(err)
			}
			cfa, err := dataflow.NewFlagAnalysis(c)
			if err != nil {
				t.Fatal(err)
			}
			if r.Module != m || cr.Module != c {
				t.Fatal("a result names the wrong module")
			}
			got, want := *r, *cr
			got.Module, want.Module = nil, nil
			if !reflect.DeepEqual(got, want) {
				t.Error("memoized dataflow result differs from the clone's")
			}
			if !reflect.DeepEqual(an, can) {
				t.Error("memoized error-bound analysis differs from the clone's")
			}

			cands := m.Candidates()
			q, cq := fa.NewQuery(), cfa.NewQuery()
			rng := rand.New(rand.NewSource(int64(len(cands))))
			for trial := 0; trial < 24; trial++ {
				for _, a := range cands {
					if rng.Intn(8) == 0 {
						q.Single(a)
						cq.Single(a)
					}
				}
				// The answers are the queries' own buffers: compare
				// before either query runs again.
				if a, b := q.CleanOperandsUnder(cands), cq.CleanOperandsUnder(cands); !reflect.DeepEqual(a, b) {
					t.Fatalf("trial %d: flag answers differ between the module and its clone", trial)
				}
			}
		})
	}
}

// TestImageMemoConcurrentFirstUse: concurrent first calls of every
// analysis on one module make each once, on one supergraph, and hand
// every caller the same values (run under -race).
func TestImageMemoConcurrentFirstUse(t *testing.T) {
	b, err := kernels.Get("cg", kernels.ClassW)
	if err != nil {
		t.Fatal(err)
	}
	m := b.Module
	type got struct {
		r  *dataflow.Result
		fa *dataflow.FlagAnalysis
		an *errbound.Analysis
	}
	const n = 6
	var out [n]got
	var wg sync.WaitGroup
	start := make(chan struct{})
	before := analysisCounts()
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			var err error
			// Each goroutine asks in its own order, so first calls of
			// every analysis race with one another.
			for k := 0; k < 3; k++ {
				switch (g + k) % 3 {
				case 0:
					out[g].r, err = dataflow.Analyze(m)
				case 1:
					out[g].fa, err = dataflow.NewFlagAnalysis(m)
				case 2:
					out[g].an, err = errbound.Analyze(m, errbound.Options{})
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	if got, want := analysisSince(before), [3]int64{1, 1, 1}; got != want {
		t.Errorf("supergraph builds/dataflow analyses/bound analyses = %v, want %v", got, want)
	}
	for g := 1; g < n; g++ {
		if out[g] != out[0] {
			t.Errorf("goroutine %d got different analyses than goroutine 0", g)
		}
	}
	if !errbound.Memoized(m) || errbound.Memoized(m.Clone()) {
		t.Error("Memoized must hold for the analyzed module and not for its clone")
	}
}
