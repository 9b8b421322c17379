// Package experiments reproduces every table and figure of the paper's
// evaluation (§3): the NAS MPI scaling overheads (Figure 8), the per-class
// overhead table (Figure 9), the automatic-search results table
// (Figure 10), the AMG microkernel end-to-end conversion (§3.2), the
// SuperLU threshold sweep (Figure 11) and the §3.1 bit-for-bit
// equivalence check. Each experiment returns structured rows so the
// fpbench tool and the benchmark harness share one implementation.
package experiments

import (
	"fmt"
	"time"

	"fpmix/internal/config"
	"fpmix/internal/kernels"
	"fpmix/internal/mpi"
	"fpmix/internal/prog"
	"fpmix/internal/replace"
	"fpmix/internal/search"
	"fpmix/internal/shadow"
	"fpmix/internal/verify"
	"fpmix/internal/vm"
)

// Fig8Ranks are the rank counts of the scaling experiment.
var Fig8Ranks = []int{1, 2, 4, 8}

// Fig8Row is one benchmark's overhead-vs-ranks series.
type Fig8Row struct {
	Bench    string
	Ranks    []int
	Overhead []float64 // instrumented / original total cycles
}

// Fig8 measures all-double instrumentation overhead of the MPI kernels as
// the rank count scales (paper Figure 8, class A).
func Fig8(class kernels.Class) ([]Fig8Row, error) {
	var rows []Fig8Row
	for _, name := range kernels.MPIKernelNames() {
		mod, err := kernels.MPISource(name, class)
		if err != nil {
			return nil, err
		}
		inst, err := instrumentAll(mod, config.Double)
		if err != nil {
			return nil, err
		}
		row := Fig8Row{Bench: name, Ranks: Fig8Ranks}
		for _, ranks := range Fig8Ranks {
			ov, err := mpiOverhead(mod, inst, ranks)
			if err != nil {
				return nil, fmt.Errorf("%s ranks=%d: %w", name, ranks, err)
			}
			row.Overhead = append(row.Overhead, ov)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig9Row is one entry of the per-class overhead table.
type Fig9Row struct {
	Bench    string
	Class    kernels.Class
	Overhead float64
}

// Fig9 measures all-double instrumentation overhead for ep/cg/ft/mg at
// two input classes on 8 ranks (paper Figure 9; the paper uses classes A
// and C — pass them in).
func Fig9(classes []kernels.Class) ([]Fig9Row, error) {
	const ranks = 8
	var rows []Fig9Row
	for _, name := range kernels.MPIKernelNames() {
		for _, class := range classes {
			mod, err := kernels.MPISource(name, class)
			if err != nil {
				return nil, err
			}
			inst, err := instrumentAll(mod, config.Double)
			if err != nil {
				return nil, err
			}
			ov, err := mpiOverhead(mod, inst, ranks)
			if err != nil {
				return nil, fmt.Errorf("%s.%s: %w", name, class, err)
			}
			rows = append(rows, Fig9Row{Bench: name, Class: class, Overhead: ov})
		}
	}
	return rows, nil
}

// Fig10Row is one search-result line of the NAS benchmark table.
type Fig10Row struct {
	Bench      string
	Class      kernels.Class
	Candidates int
	Tested     int
	StaticPct  float64
	DynamicPct float64
	FinalPass  bool
}

// Fig10Benches are the benchmarks of the paper's search table, in its
// row order.
var Fig10Benches = []string{"bt", "cg", "ep", "ft", "lu", "mg", "sp"}

// Fig10 runs the automatic breadth-first search on each benchmark and
// class (paper Figure 10: candidates, configurations tested, static and
// dynamic replacement percentages, final composed verification).
func Fig10(names []string, classes []kernels.Class, workers int) ([]Fig10Row, error) {
	var rows []Fig10Row
	for _, name := range names {
		for _, class := range classes {
			b, err := kernels.Get(name, class)
			if err != nil {
				return nil, err
			}
			res, err := search.Run(search.Target{
				Module:   b.Module,
				Verify:   b.Verify,
				MaxSteps: b.MaxSteps,
				Base:     b.Base,
			}, search.Options{
				Workers:     workers,
				BinarySplit: true,
				Prioritize:  true,
			})
			if err != nil {
				return nil, fmt.Errorf("%s.%s: %w", name, class, err)
			}
			rows = append(rows, Fig10Row{
				Bench:      name,
				Class:      class,
				Candidates: res.Candidates,
				Tested:     res.Tested,
				StaticPct:  res.Stats.StaticPct,
				DynamicPct: res.Stats.DynamicPct,
				FinalPass:  res.FinalPass,
			})
		}
	}
	return rows, nil
}

// SensRow is one benchmark's sensitivity-guided search ablation.
type SensRow struct {
	Bench string
	Class kernels.Class
	// TestedBase is configurations tested by the counts-prioritized
	// baseline (`fpsearch -nosens`), TestedSens by the sensitivity-guided
	// search on the same shadow profile.
	TestedBase int
	TestedSens int
	// Predicted is the number of aggregates the gate failed without a
	// run; MaxErr is the profile's worst instruction error.
	Predicted int
	MaxErr    float64
	// Identical reports whether both searches composed byte-identical
	// final configurations (the gate's correctness condition).
	Identical bool
	FinalPass bool
}

// Sens runs the sensitivity ablation: one shadow-value pass per
// benchmark, then the search twice — the counts-prioritized baseline and
// the sensitivity-guided default — and compares trajectories and final
// configurations.
func Sens(names []string, class kernels.Class, workers int) ([]SensRow, error) {
	var rows []SensRow
	for _, name := range names {
		b, err := kernels.Get(name, class)
		if err != nil {
			return nil, err
		}
		sh, err := shadow.Collect(name+"."+string(class), b.Module, b.MaxSteps)
		if err != nil {
			return nil, fmt.Errorf("%s.%s: shadow: %w", name, class, err)
		}
		tgt := search.Target{
			Module:   b.Module,
			Verify:   b.Verify,
			MaxSteps: b.MaxSteps,
			Base:     b.Base,
		}
		opts := search.Options{Workers: workers, BinarySplit: true, Prioritize: true}
		base, err := search.Run(tgt, opts)
		if err != nil {
			return nil, fmt.Errorf("%s.%s: baseline: %w", name, class, err)
		}
		opts.Shadow = sh
		opts.SensThreshold = b.SensTol
		res, err := search.Run(tgt, opts)
		if err != nil {
			return nil, fmt.Errorf("%s.%s: sensitivity: %w", name, class, err)
		}
		maxErr := 0.0
		if r := sh.Ranked(); len(r) > 0 {
			maxErr = r[0].MaxRelErr
		}
		rows = append(rows, SensRow{
			Bench:      name,
			Class:      class,
			TestedBase: base.Tested,
			TestedSens: res.Tested,
			Predicted:  res.Predicted,
			MaxErr:     maxErr,
			Identical:  res.Final.String() == base.Final.String(),
			FinalPass:  res.FinalPass,
		})
	}
	return rows, nil
}

// EngineRow is one benchmark's compiled-vs-interpreted engine ablation.
type EngineRow struct {
	Bench string
	Class kernels.Class
	// CompiledNS and InterpNS are the wall-clock nanoseconds of the same
	// search on the compiled direct-threaded tier and on the per-step
	// interpreter (`fpsearch -nocompile`).
	CompiledNS int64
	InterpNS   int64
	// SpeedupX is InterpNS / CompiledNS.
	SpeedupX float64
	// Tested is the number of configurations both searches evaluated
	// (identical by construction; reported for scale).
	Tested int
	// Identical reports whether the two searches composed byte-identical
	// final configurations — the engine's correctness condition.
	Identical bool
	FinalPass bool
}

// Engine runs the execution-engine ablation: the identical search per
// benchmark on the compiled tier and on the per-step interpreter,
// comparing wall clock and final configurations.
func Engine(names []string, class kernels.Class, workers int) ([]EngineRow, error) {
	var rows []EngineRow
	for _, name := range names {
		b, err := kernels.Get(name, class)
		if err != nil {
			return nil, err
		}
		tgt := search.Target{
			Module:   b.Module,
			Verify:   b.Verify,
			MaxSteps: b.MaxSteps,
			Base:     b.Base,
		}
		opts := search.Options{Workers: workers, BinarySplit: true, Prioritize: true}
		start := time.Now()
		compiled, err := search.Run(tgt, opts)
		if err != nil {
			return nil, fmt.Errorf("%s.%s: compiled: %w", name, class, err)
		}
		compiledNS := time.Since(start).Nanoseconds()

		opts.NoCompile = true
		start = time.Now()
		interp, err := search.Run(tgt, opts)
		if err != nil {
			return nil, fmt.Errorf("%s.%s: nocompile: %w", name, class, err)
		}
		interpNS := time.Since(start).Nanoseconds()

		rows = append(rows, EngineRow{
			Bench:      name,
			Class:      class,
			CompiledNS: compiledNS,
			InterpNS:   interpNS,
			SpeedupX:   float64(interpNS) / float64(compiledNS),
			Tested:     compiled.Tested,
			Identical:  compiled.Final.String() == interp.Final.String() && compiled.Tested == interp.Tested,
			FinalPass:  compiled.FinalPass,
		})
	}
	return rows, nil
}

// Fig11Thresholds are the error bounds of the SuperLU sweep.
var Fig11Thresholds = []float64{1e-3, 1e-4, 7.5e-5, 5e-5, 2.5e-5, 1e-5, 1e-6}

// Fig11Row is one threshold line of the SuperLU table.
type Fig11Row struct {
	Threshold  float64
	StaticPct  float64
	DynamicPct float64
	FinalError float64 // reported error of the final composed run
	FinalPass  bool
}

// Fig11 sweeps the SuperLU error threshold: the search is driven by the
// solver's own reported error metric compared against each bound (paper
// Figure 11 / §3.3).
func Fig11(class kernels.Class, workers int) ([]Fig11Row, error) {
	b, err := kernels.Get("superlu", class)
	if err != nil {
		return nil, err
	}
	var rows []Fig11Row
	for _, thr := range Fig11Thresholds {
		v := verify.ErrorBelow(0, thr)
		res, err := search.Run(search.Target{
			Module:   b.Module,
			Verify:   v,
			MaxSteps: b.MaxSteps,
		}, search.Options{Workers: workers, BinarySplit: true, Prioritize: true})
		if err != nil {
			return nil, fmt.Errorf("threshold %g: %w", thr, err)
		}
		// Run the final composed configuration to report its error.
		finalErr, err := finalError(b, res.Final)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig11Row{
			Threshold:  thr,
			StaticPct:  res.Stats.StaticPct,
			DynamicPct: res.Stats.DynamicPct,
			FinalError: finalErr,
			FinalPass:  res.FinalPass,
		})
	}
	return rows, nil
}

func finalError(b *kernels.Bench, cfgn *config.Config) (float64, error) {
	inst, err := replace.Instrument(b.Module, cfgn, replace.InstrumentOptions{})
	if err != nil {
		return 0, err
	}
	m, err := vm.New(inst)
	if err != nil {
		return 0, err
	}
	m.MaxSteps = b.MaxSteps
	if err := m.Run(); err != nil {
		return 0, err
	}
	if len(m.Out) == 0 {
		return 0, fmt.Errorf("experiments: no output from final run")
	}
	return verify.Decode(m.Out)[0], nil
}

// AMGResult captures the §3.2 end-to-end experiment.
type AMGResult struct {
	AllSinglePass    bool    // whole kernel verified in single precision
	AnalysisOverhead float64 // all-single instrumented / original cycles
	ManualSpeedup    float64 // double build / manual F32 build cycles
	SearchStaticPct  float64 // search confirms 100%
	SearchFinalPass  bool
}

// AMG reproduces §3.2: the analysis verifies the whole kernel can run in
// single precision, and a manual conversion yields the speedup.
func AMG(class kernels.Class, workers int) (*AMGResult, error) {
	b, err := kernels.Get("amg", class)
	if err != nil {
		return nil, err
	}
	inst, err := instrumentAll(b.Module, config.Single)
	if err != nil {
		return nil, err
	}
	orig, err := runMod(b.Module, b.MaxSteps)
	if err != nil {
		return nil, err
	}
	single, err := runMod(inst, b.MaxSteps)
	if err != nil {
		return nil, err
	}
	manual, err := runMod(b.ModuleF32, b.MaxSteps)
	if err != nil {
		return nil, err
	}
	res, err := search.Run(search.Target{
		Module:   b.Module,
		Verify:   b.Verify,
		MaxSteps: b.MaxSteps,
	}, search.Options{Workers: workers, BinarySplit: true, Prioritize: true})
	if err != nil {
		return nil, err
	}
	return &AMGResult{
		AllSinglePass:    b.Verify(single.Out),
		AnalysisOverhead: float64(single.Cycles) / float64(orig.Cycles),
		ManualSpeedup:    float64(orig.Cycles) / float64(manual.Cycles),
		SearchStaticPct:  res.Stats.StaticPct,
		SearchFinalPass:  res.FinalPass,
	}, nil
}

// BitExactRow is one kernel's §3.1 equivalence result.
type BitExactRow struct {
	Bench   string
	Class   kernels.Class
	Outputs int
	Match   bool
}

// BitExact verifies that instrumented all-single execution produces the
// same bits as the manually converted single-precision build for every
// convertible kernel (§3.1).
func BitExact(class kernels.Class) ([]BitExactRow, error) {
	var rows []BitExactRow
	for _, name := range kernels.Names() {
		b, err := kernels.Get(name, class)
		if err != nil {
			return nil, err
		}
		if b.ModuleF32 == nil {
			continue
		}
		inst, err := instrumentAll(b.Module, config.Single)
		if err != nil {
			return nil, err
		}
		mi, err := runMod(inst, 4_000_000_000)
		if err != nil {
			return nil, err
		}
		mf, err := runMod(b.ModuleF32, 4_000_000_000)
		if err != nil {
			return nil, err
		}
		row := BitExactRow{Bench: name, Class: class, Outputs: len(mi.Out), Match: len(mi.Out) == len(mf.Out)}
		for i := 0; row.Match && i < len(mi.Out); i++ {
			if uint32(mi.Out[i].Bits) != uint32(mf.Out[i].Bits) {
				row.Match = false
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func instrumentAll(m *prog.Module, p config.Precision) (*prog.Module, error) {
	c, err := config.FromModule(m)
	if err != nil {
		return nil, err
	}
	c.SetAll(p)
	return replace.Instrument(m, c, replace.InstrumentOptions{})
}

func runMod(m *prog.Module, maxSteps uint64) (*vm.Machine, error) {
	mach, err := vm.New(m)
	if err != nil {
		return nil, err
	}
	mach.MaxSteps = maxSteps
	if err := mach.Run(); err != nil {
		return nil, err
	}
	return mach, nil
}

func mpiOverhead(orig, inst *prog.Module, ranks int) (float64, error) {
	base, err := mpi.RunWorld(orig, ranks, 0)
	if err != nil {
		return 0, err
	}
	wrapped, err := mpi.RunWorld(inst, ranks, 0)
	if err != nil {
		return 0, err
	}
	return float64(mpi.TotalCycles(wrapped)) / float64(mpi.TotalCycles(base)), nil
}
