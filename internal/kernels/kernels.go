// Package kernels implements the workload programs of the paper's
// evaluation, compiled to the fpmix ISA through the hl builder: scaled
// NAS-style kernels (EP, CG, FT, MG, BT, SP, LU) with W/A/C input
// classes, the AMG microkernel (§3.2) and a SuperLU-style direct solver
// (§3.3), plus MPI variants of EP/CG/FT/MG for the scaling experiments
// (Figure 8).
//
// The kernels are algorithmically faithful, scaled-down reproductions:
// what matters to the mixed-precision analysis is each program's
// structure (functions, blocks, instruction mix) and numerical behaviour
// (which regions tolerate single precision under the benchmark's
// verification), not the original problem sizes.
package kernels

import (
	"fmt"
	"sort"

	"fpmix/internal/config"
	"fpmix/internal/prog"
	"fpmix/internal/verify"
	"fpmix/internal/vm"
)

// Class selects the input size, mirroring NAS problem classes.
type Class string

// Input classes.
const (
	ClassW Class = "W"
	ClassA Class = "A"
	ClassC Class = "C"
)

// Bench is a ready-to-analyze workload.
type Bench struct {
	Name  string
	Class Class
	// Module is the double-precision build (the binary under analysis).
	Module *prog.Module
	// ModuleF32 is the manually converted single-precision build of the
	// same source, when the kernel is convertible (nil otherwise).
	ModuleF32 *prog.Module
	// Verify is the benchmark's verification routine over program output.
	Verify func([]vm.OutVal) bool
	// Base optionally pre-flags instructions Ignore (EP's RNG).
	Base *config.Config
	// MaxSteps bounds instrumented runs.
	MaxSteps uint64
	// Reference holds the trusted double-precision outputs.
	Reference []float64
	// SensTol is the verification tolerance the sensitivity-guided
	// search's prediction gate compares aggregated shadow error against
	// (search.Options.SensThreshold): the loosest relative tolerance in
	// the kernel's Verify, so a predicted failure means no output check
	// could accept the piece. 0 disables gating for the kernel.
	SensTol float64
}

// builder constructs a benchmark for a class.
type builder func(Class) (*Bench, error)

var registry = map[string]builder{
	"ep":      buildEP,
	"cg":      buildCG,
	"ft":      buildFT,
	"mg":      buildMG,
	"bt":      buildBT,
	"sp":      buildSP,
	"lu":      buildLU,
	"amg":     buildAMG,
	"superlu": buildSuperLU,
}

// Names returns the registered kernel names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Get builds the named benchmark at the given class.
func Get(name string, class Class) (*Bench, error) {
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("kernels: unknown benchmark %q (have %v)", name, Names())
	}
	return b(class)
}

// reference runs the double build and records its outputs.
func reference(m *prog.Module, maxSteps uint64) ([]float64, []vm.OutVal, error) {
	lp, err := vm.Link(m)
	if err != nil {
		return nil, nil, err
	}
	mach := lp.NewMachine()
	mach.MaxSteps = maxSteps
	if err := mach.Run(); err != nil {
		return nil, nil, err
	}
	return verify.Decode(mach.Out), mach.Out, nil
}

// ignoreFuncs returns a base configuration with the named functions
// flagged Ignore (for constructs like RNGs whose bit tricks must not be
// touched, paper §2.1).
func ignoreFuncs(m *prog.Module, names ...string) (*config.Config, error) {
	c, err := config.FromModule(m)
	if err != nil {
		return nil, err
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	for _, fn := range c.Root.Children {
		if want[fn.Name] {
			fn.Flag = config.Ignore
		}
	}
	return c, nil
}
