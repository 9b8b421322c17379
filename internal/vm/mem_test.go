package vm

import (
	"errors"
	"fmt"
	"testing"

	"fpmix/internal/isa"
	"fpmix/internal/prog"
)

// The compiled tier's memory fast paths make one range-and-wrap check and
// then access memory directly (mem_direct.go). These tests pin that check
// against the per-step interpreter at the edges of memory.

// boundaryAddrs returns the addresses at which a width-byte access is
// probed, from the last ones that fit to ones whose end wraps past 2^64.
func boundaryAddrs(size, width uint64) []uint64 {
	return []uint64{
		size - 8, size - width, size - width + 1, size - 7, size - 1, size,
		-width, -width + 1, ^uint64(0),
	}
}

// fits reports whether a width-byte access at addr lies inside memory.
func fits(addr, width, size uint64) bool { return addr+width <= size && addr+width >= addr }

// boundaryRun runs lp on both tiers with the register file seedMachine
// gives, then base set to addr-off, and checks the two machines are
// identical and that the run faulted at instruction idx exactly when the
// access of width bytes at addr does not fit.
func boundaryRun(t *testing.T, label string, lp *Program, base uint8, addr, off, width uint64, idx int) {
	t.Helper()
	run := func(noCompile bool) engineResult {
		m := lp.NewMachine()
		m.NoCompile = noCompile
		m.TrackDirtyPages()
		seedMachine(m, nil)
		m.GPR[base] = addr - off
		return engineResult{m, m.Run()}
	}
	compiled, interp := run(false), run(true)
	diffMachines(t, label, compiled, interp)
	sameDirtyPages(t, label, compiled.m, interp.m)
	var f *Fault
	switch {
	case fits(addr, width, uint64(len(compiled.m.Mem))):
		if compiled.err != nil {
			t.Errorf("%s: in-bounds access faulted: %v", label, compiled.err)
		}
	case !errors.As(compiled.err, &f) || f.Kind != FaultMemOOB:
		t.Errorf("%s: got %v, want a memory fault", label, compiled.err)
	case f.PC != lp.instrs[idx].Addr:
		t.Errorf("%s: fault at %#x, want %#x", label, f.PC, lp.instrs[idx].Addr)
	}
}

// linkBoundary links instrs followed by HALT over the fault-parity data.
func linkBoundary(t *testing.T, instrs []isa.Instr) *Program {
	t.Helper()
	f := &prog.Func{Name: "main", Instrs: append(instrs, isa.I(isa.HALT))}
	mod, err := prog.Build("boundary", []*prog.Func{f}, fuseData(), prog.DataBase+4096, "main")
	if err != nil {
		t.Fatal(err)
	}
	lp, err := Link(mod)
	if err != nil {
		t.Fatal(err)
	}
	return lp
}

// TestCompiledAccessBoundaryParity probes LOAD, STORE, MOVSD, MOVSS and
// every memory constituent of every fused case at the edges of memory:
// 8- and 4-byte accesses ending at len(Mem) succeed, and one byte further
// or an end that wraps past 2^64 faults, with the same kind and PC on
// both tiers.
func TestCompiledAccessBoundaryParity(t *testing.T) {
	mem := isa.Mem(isa.R8, 0)
	plain := []struct {
		name  string
		in    isa.Instr
		width uint64
	}{
		{"LOAD", isa.I(isa.LOAD, isa.Gpr(isa.RAX), mem), 8},
		{"STORE", isa.I(isa.STORE, mem, isa.Gpr(isa.RAX)), 8},
		{"MOVSD load", isa.I(isa.MOVSD, isa.Xmm(1), mem), 8},
		{"MOVSD store", isa.I(isa.MOVSD, mem, isa.Xmm(1)), 8},
		{"MOVSS load", isa.I(isa.MOVSS, isa.Xmm(1), mem), 4},
		{"MOVSS store", isa.I(isa.MOVSS, mem, isa.Xmm(1)), 4},
	}
	for _, tc := range plain {
		lp := linkBoundary(t, []isa.Instr{tc.in})
		size := uint64(len(lp.NewMachine().Mem))
		for _, addr := range boundaryAddrs(size, tc.width) {
			boundaryRun(t, fmt.Sprintf("%s at %#x", tc.name, addr), lp, isa.R8, addr, 0, tc.width, 0)
		}
	}

	// Every memory constituent of every fused case, with its base moved
	// so the constituent's own effective address lands on each probe.
	bases := [3]uint8{isa.R8, isa.R9, isa.R10}
	for ci, fc := range fuseCases {
		c := fc.build(bases[0], bases[1], bases[2])
		lp := linkBoundary(t, c)
		for mi, k := range fc.fallible {
			// The constituent's address less its base's value, from a
			// per-step run up to it.
			m := lp.NewMachine()
			seedMachine(m, nil)
			for s := 0; s < k; s++ {
				if err := m.Step(); err != nil {
					t.Fatal(err)
				}
			}
			ref := c[k].B.Mem
			if c[k].A.Kind == isa.KindMem {
				ref = c[k].A.Mem
			}
			if ref.Base != bases[mi] {
				t.Fatalf("case %d: constituent %d based on r%d, want r%d", ci, k, ref.Base, bases[mi])
			}
			off := m.ea(ref) - m.GPR[ref.Base]
			for _, addr := range boundaryAddrs(uint64(len(m.Mem)), 8) {
				label := fmt.Sprintf("case %d (%s) constituent %d at %#x", ci, fusePatternNames[fc.p], k, addr)
				boundaryRun(t, label, lp, ref.Base, addr, off, 8, k)
			}
		}
	}
}
