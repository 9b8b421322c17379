// Benchmark harness regenerating every table and figure of the paper's
// evaluation, plus ablations of the design choices called out in
// DESIGN.md. Custom metrics carry the experiment results:
//
//	overheadX    instrumented / original modeled cycles (Figures 8, 9)
//	staticPct    fraction of candidate instructions replaced (Figure 10)
//	dynamicPct   fraction of executed candidates replaced (Figure 10)
//	testedCfgs   configurations evaluated by the search
//	speedupX     double / single modeled cycles (§3.2)
//
// Run with: go test -bench=. -benchmem
package fpmix_test

import (
	"testing"

	"fpmix/internal/config"
	"fpmix/internal/experiments"
	"fpmix/internal/kernels"
	"fpmix/internal/mpi"
	"fpmix/internal/prog"
	"fpmix/internal/replace"
	"fpmix/internal/search"
	"fpmix/internal/shadow"
	"fpmix/internal/vm"
)

// ---- Figure 8: MPI scaling overhead -----------------------------------

func benchFig8(b *testing.B, name string, ranks int) {
	mod, err := kernels.MPISource(name, kernels.ClassA)
	if err != nil {
		b.Fatal(err)
	}
	inst := instrumentAll(b, mod, config.Double)
	var overhead float64
	for i := 0; i < b.N; i++ {
		base, err := mpi.RunWorld(mod, ranks, 0)
		if err != nil {
			b.Fatal(err)
		}
		wrapped, err := mpi.RunWorld(inst, ranks, 0)
		if err != nil {
			b.Fatal(err)
		}
		overhead = float64(mpi.TotalCycles(wrapped)) / float64(mpi.TotalCycles(base))
	}
	b.ReportMetric(overhead, "overheadX")
}

func BenchmarkFig8_EP(b *testing.B) {
	for _, ranks := range experiments.Fig8Ranks {
		b.Run(rankName(ranks), func(b *testing.B) { benchFig8(b, "ep", ranks) })
	}
}

func BenchmarkFig8_CG(b *testing.B) {
	for _, ranks := range experiments.Fig8Ranks {
		b.Run(rankName(ranks), func(b *testing.B) { benchFig8(b, "cg", ranks) })
	}
}

func BenchmarkFig8_FT(b *testing.B) {
	for _, ranks := range experiments.Fig8Ranks {
		b.Run(rankName(ranks), func(b *testing.B) { benchFig8(b, "ft", ranks) })
	}
}

func BenchmarkFig8_MG(b *testing.B) {
	for _, ranks := range experiments.Fig8Ranks {
		b.Run(rankName(ranks), func(b *testing.B) { benchFig8(b, "mg", ranks) })
	}
}

func rankName(r int) string {
	return map[int]string{1: "1rank", 2: "2ranks", 4: "4ranks", 8: "8ranks"}[r]
}

// ---- Figure 9: per-class overhead table --------------------------------

func BenchmarkFig9(b *testing.B) {
	for _, name := range kernels.MPIKernelNames() {
		for _, class := range []kernels.Class{kernels.ClassA, kernels.ClassC} {
			name, class := name, class
			b.Run(name+"."+string(class), func(b *testing.B) {
				mod, err := kernels.MPISource(name, class)
				if err != nil {
					b.Fatal(err)
				}
				inst := instrumentAll(b, mod, config.Double)
				var overhead float64
				for i := 0; i < b.N; i++ {
					base, err := mpi.RunWorld(mod, 8, 0)
					if err != nil {
						b.Fatal(err)
					}
					wrapped, err := mpi.RunWorld(inst, 8, 0)
					if err != nil {
						b.Fatal(err)
					}
					overhead = float64(mpi.TotalCycles(wrapped)) / float64(mpi.TotalCycles(base))
				}
				b.ReportMetric(overhead, "overheadX")
			})
		}
	}
}

// ---- Figure 10: the automatic search ------------------------------------

func BenchmarkFig10(b *testing.B) {
	for _, name := range experiments.Fig10Benches {
		name := name
		b.Run(name+".W", func(b *testing.B) {
			bench, err := kernels.Get(name, kernels.ClassW)
			if err != nil {
				b.Fatal(err)
			}
			var res *search.Result
			for i := 0; i < b.N; i++ {
				res, err = search.Run(searchTarget(bench), search.Options{
					Workers: 8, BinarySplit: true, Prioritize: true,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Stats.StaticPct, "staticPct")
			b.ReportMetric(res.Stats.DynamicPct, "dynamicPct")
			b.ReportMetric(float64(res.Tested), "testedCfgs")
		})
	}
}

// ---- Figure 11: SuperLU threshold sweep ---------------------------------

func BenchmarkFig11(b *testing.B) {
	var rows []experiments.Fig11Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Fig11(kernels.ClassW, 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Report the loosest and tightest thresholds' replacement rates.
	b.ReportMetric(rows[0].StaticPct, "looseStaticPct")
	b.ReportMetric(rows[len(rows)-1].StaticPct, "tightStaticPct")
}

// ---- §3.2: the AMG microkernel ------------------------------------------

func BenchmarkAMG(b *testing.B) {
	var res *experiments.AMGResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.AMG(kernels.ClassW, 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	if !res.AllSinglePass {
		b.Fatal("AMG did not verify in single precision")
	}
	b.ReportMetric(res.ManualSpeedup, "speedupX")
	b.ReportMetric(res.AnalysisOverhead, "overheadX")
}

// ---- Evaluation engine ---------------------------------------------------

// BenchmarkSearchEvaluate measures end-to-end search throughput across
// the evaluation backends: the fork-point engine on the compiled
// direct-threaded VM tier (the default), the fork engine pinned to the
// per-step interpreter (nocompile), and the from-scratch fallback, on mg.
// All three run the identical search; ns/op ratios are the respective
// speedups. The fork-lu, fork-bt and fork-sp legs run the default engine
// on the kernels whose searches evaluation dominates. Every leg reports
// the compiled tier's census per search (vm.ReadCensus): blocks
// dispatched, micro-ops executed and the steps compiled-tier runs
// executed — next to the bytes and allocations per search.
func BenchmarkSearchEvaluate(b *testing.B) {
	for _, leg := range []struct {
		name, kernel string
		mode         search.EngineMode
		noCompile    bool
	}{
		{"fork", "mg", search.EngineFork, false},
		{"nocompile", "mg", search.EngineFork, true},
		{"fallback", "mg", search.EngineOff, false},
		{"fork-lu", "lu", search.EngineFork, false},
		{"fork-bt", "bt", search.EngineFork, false},
		{"fork-sp", "sp", search.EngineFork, false},
	} {
		leg := leg
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			bench, err := kernels.Get(leg.kernel, kernels.ClassW)
			if err != nil {
				b.Fatal(err)
			}
			var res *search.Result
			before := vm.ReadCensus()
			for i := 0; i < b.N; i++ {
				res, err = search.Run(searchTarget(bench), search.Options{
					Workers: 8, BinarySplit: true, Prioritize: true,
					Engine: leg.mode, NoCompile: leg.noCompile,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			after := vm.ReadCensus()
			n := float64(b.N)
			b.ReportMetric(float64(after.Blocks-before.Blocks)/n, "blocks/op")
			b.ReportMetric(float64(after.MicroOps-before.MicroOps)/n, "microOps/op")
			b.ReportMetric(float64(after.Steps-before.Steps)/n, "steps/op")
			b.ReportMetric(float64(res.Tested), "testedCfgs")
			b.ReportMetric(float64(res.MemoHits), "memoHits")
			if leg.mode == search.EngineFork {
				b.ReportMetric(float64(res.Forked), "forkedCfgs")
				b.ReportMetric(float64(res.PrefixInstrsSaved), "prefixInstrs")
			}
		})
	}
}

// ---- Ablations (DESIGN.md §5) -------------------------------------------

// BenchmarkAblationSearchSplit compares configurations tested with and
// without the binary-splitting optimization (§2.2, optimization 1).
func BenchmarkAblationSearchSplit(b *testing.B) {
	bench, err := kernels.Get("sp", kernels.ClassW)
	if err != nil {
		b.Fatal(err)
	}
	for _, split := range []bool{true, false} {
		split := split
		name := "split"
		if !split {
			name = "nosplit"
		}
		b.Run(name, func(b *testing.B) {
			var res *search.Result
			for i := 0; i < b.N; i++ {
				res, err = search.Run(searchTarget(bench), search.Options{
					Workers: 8, BinarySplit: split, Prioritize: true,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Tested), "testedCfgs")
		})
	}
}

// BenchmarkAblationPrioritize compares search wall-time behavior with and
// without profile prioritization (§2.2, optimization 2). The outcome is
// identical; the metric of interest is ns/op.
func BenchmarkAblationPrioritize(b *testing.B) {
	bench, err := kernels.Get("mg", kernels.ClassW)
	if err != nil {
		b.Fatal(err)
	}
	for _, prio := range []bool{true, false} {
		prio := prio
		name := "prioritized"
		if !prio {
			name = "fifo"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := search.Run(searchTarget(bench), search.Options{
					Workers: 1, BinarySplit: true, Prioritize: prio,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationUncheckedDowncast quantifies the flag-test fast path in
// single-precision snippets (§2.3: "the downcast operation is performed
// only when the input has not already been replaced").
func BenchmarkAblationUncheckedDowncast(b *testing.B) {
	bench, err := kernels.Get("amg", kernels.ClassW)
	if err != nil {
		b.Fatal(err)
	}
	for _, unchecked := range []bool{false, true} {
		unchecked := unchecked
		name := "checked"
		if unchecked {
			name = "unchecked"
		}
		b.Run(name, func(b *testing.B) {
			c, err := config.FromModule(bench.Module)
			if err != nil {
				b.Fatal(err)
			}
			c.SetAll(config.Single)
			inst, err := replace.Instrument(bench.Module, c, replace.InstrumentOptions{
				Snippet: replace.Options{UncheckedDowncast: unchecked},
			})
			if err != nil {
				b.Fatal(err)
			}
			var cycles uint64
			for i := 0; i < b.N; i++ {
				m, err := vm.New(inst)
				if err != nil {
					b.Fatal(err)
				}
				if err := m.Run(); err != nil {
					b.Fatal(err)
				}
				cycles = m.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkAblationSkipDoubleSnippets measures the §2.5 future
// optimization (static dataflow analysis eliding double wrappers) as an
// upper bound: all-double instrumentation with and without wrappers.
func BenchmarkAblationSkipDoubleSnippets(b *testing.B) {
	bench, err := kernels.Get("cg", kernels.ClassW)
	if err != nil {
		b.Fatal(err)
	}
	for _, skip := range []bool{false, true} {
		skip := skip
		name := "wrapped"
		if skip {
			name = "elided"
		}
		b.Run(name, func(b *testing.B) {
			c, err := config.FromModule(bench.Module)
			if err != nil {
				b.Fatal(err)
			}
			c.SetAll(config.Double)
			inst, err := replace.Instrument(bench.Module, c, replace.InstrumentOptions{
				SkipDoubleSnippets: skip,
			})
			if err != nil {
				b.Fatal(err)
			}
			var overhead float64
			for i := 0; i < b.N; i++ {
				orig, err := run(bench.Module)
				if err != nil {
					b.Fatal(err)
				}
				wrapped, err := run(inst)
				if err != nil {
					b.Fatal(err)
				}
				overhead = float64(wrapped.Cycles) / float64(orig.Cycles)
			}
			b.ReportMetric(overhead, "overheadX")
		})
	}
}

// BenchmarkAblationSensitivity compares the sensitivity-guided search
// (shadow profile ordering the queue and predicting hopeless aggregates)
// against the counts-prioritized baseline on the same kernel. Both
// sub-runs compose the identical final configuration; the metrics of
// interest are testedCfgs (guided must not exceed the baseline) and
// predicted (aggregate failures resolved without a run).
func BenchmarkAblationSensitivity(b *testing.B) {
	bench, err := kernels.Get("ep", kernels.ClassW)
	if err != nil {
		b.Fatal(err)
	}
	sh, err := shadow.Collect("ep.W", bench.Module, bench.MaxSteps)
	if err != nil {
		b.Fatal(err)
	}
	for _, guided := range []bool{true, false} {
		guided := guided
		name := "guided"
		if !guided {
			name = "nosens"
		}
		b.Run(name, func(b *testing.B) {
			opts := search.Options{Workers: 1, BinarySplit: true, Prioritize: true}
			if guided {
				opts.Shadow = sh
				opts.SensThreshold = bench.SensTol
			}
			var res *search.Result
			for i := 0; i < b.N; i++ {
				res, err = search.Run(searchTarget(bench), opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Tested), "testedCfgs")
			b.ReportMetric(float64(res.Predicted), "predicted")
		})
	}
}

// ---- Microbenchmarks of the framework itself ---------------------------

// BenchmarkVMThroughput measures raw interpreter speed.
func BenchmarkVMThroughput(b *testing.B) {
	bench, err := kernels.Get("mg", kernels.ClassW)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var steps uint64
	for i := 0; i < b.N; i++ {
		m, err := vm.New(bench.Module)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
		steps = m.Steps
	}
	b.ReportMetric(float64(steps), "instrs/op")
}

// BenchmarkVMThroughputCompiled measures the compiled direct-threaded
// tier (ns/op against BenchmarkVMThroughput on mg/base is the raw engine
// speedup, with link cost amortized as the search amortizes it). The lu
// sub-benchmarks cover the array-index idioms of kernel code and, all
// double-wrapped, the replacement snippets' flag tests — the two shapes
// the compiled tier's pattern superinstructions target.
func BenchmarkVMThroughputCompiled(b *testing.B) {
	for _, c := range []struct {
		name, kernel string
		wrapped      bool
	}{
		{"mg/base", "mg", false},
		{"lu/base", "lu", false},
		{"lu/wrapped", "lu", true},
	} {
		b.Run(c.name, func(b *testing.B) {
			bench, err := kernels.Get(c.kernel, kernels.ClassW)
			if err != nil {
				b.Fatal(err)
			}
			mod := bench.Module
			if c.wrapped {
				mod = instrumentAll(b, mod, config.Double)
			}
			lp, err := vm.Link(mod)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var steps uint64
			m := &vm.Machine{}
			for i := 0; i < b.N; i++ {
				m.ResetTo(lp)
				m.MaxSteps = bench.MaxSteps
				if err := m.Run(); err != nil {
					b.Fatal(err)
				}
				steps = m.Steps
			}
			b.ReportMetric(float64(steps), "instrs/op")
		})
	}
}

// linked keeps BenchmarkLink's result live.
var linked *vm.Program

// BenchmarkLink measures vm.Link, which compiles a module into the
// compiled tier's micro-ops, on the class-W base builds of lu, bt and
// mg. Its allocs/op is the baseline for changes to the fusion families:
// every fused instance costs closures and decoded structs at link time.
func BenchmarkLink(b *testing.B) {
	for _, name := range []string{"lu", "bt", "mg"} {
		b.Run(name, func(b *testing.B) {
			bench, err := kernels.Get(name, kernels.ClassW)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if linked, err = vm.Link(bench.Module); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInstrument measures the binary rewriter itself.
func BenchmarkInstrument(b *testing.B) {
	bench, err := kernels.Get("bt", kernels.ClassW)
	if err != nil {
		b.Fatal(err)
	}
	c, err := config.FromModule(bench.Module)
	if err != nil {
		b.Fatal(err)
	}
	c.SetAll(config.Single)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := replace.Instrument(bench.Module, c, replace.InstrumentOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkImageRoundTrip measures serialize + re-parse of a program
// image (the Dyninst-rewriter analog path).
func BenchmarkImageRoundTrip(b *testing.B) {
	bench, err := kernels.Get("bt", kernels.ClassW)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img, err := prog.Save(bench.Module)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := prog.Load(img); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- helpers -------------------------------------------------------------

func instrumentAll(b *testing.B, m *prog.Module, p config.Precision) *prog.Module {
	b.Helper()
	c, err := config.FromModule(m)
	if err != nil {
		b.Fatal(err)
	}
	c.SetAll(p)
	inst, err := replace.Instrument(m, c, replace.InstrumentOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

func searchTarget(bench *kernels.Bench) search.Target {
	return search.Target{
		Module:   bench.Module,
		Verify:   bench.Verify,
		MaxSteps: bench.MaxSteps,
		Base:     bench.Base,
	}
}

func run(m *prog.Module) (*vm.Machine, error) {
	mach, err := vm.New(m)
	if err != nil {
		return nil, err
	}
	mach.MaxSteps = 4_000_000_000
	if err := mach.Run(); err != nil {
		return nil, err
	}
	return mach, nil
}

// BenchmarkAblationLivenessElision measures the §2.5 snippet streamlining
// (scratch save/restore elision under the fpmix ABI) in three tiers:
// fully checked saves everywhere, the default analysis-gated build
// (per-site elisions proven safe by the dataflow analyses), and the
// unchecked whole-program ablation.
func BenchmarkAblationLivenessElision(b *testing.B) {
	bench, err := kernels.Get("mg", kernels.ClassW)
	if err != nil {
		b.Fatal(err)
	}
	tiers := []struct {
		name string
		opts replace.InstrumentOptions
	}{
		{"fullsave", replace.InstrumentOptions{NoAnalysis: true}},
		{"gated", replace.InstrumentOptions{}},
		{"elided", replace.InstrumentOptions{
			NoAnalysis: true,
			Snippet:    replace.Options{LivenessElision: true},
		}},
	}
	for _, tier := range tiers {
		tier := tier
		b.Run(tier.name, func(b *testing.B) {
			c, err := config.FromModule(bench.Module)
			if err != nil {
				b.Fatal(err)
			}
			c.SetAll(config.Double)
			inst, err := replace.Instrument(bench.Module, c, tier.opts)
			if err != nil {
				b.Fatal(err)
			}
			var overhead float64
			for i := 0; i < b.N; i++ {
				orig, err := run(bench.Module)
				if err != nil {
					b.Fatal(err)
				}
				wrapped, err := run(inst)
				if err != nil {
					b.Fatal(err)
				}
				overhead = float64(wrapped.Cycles) / float64(orig.Cycles)
			}
			b.ReportMetric(overhead, "overheadX")
		})
	}
}
