package vm

import (
	"sort"
	"sync"

	"fpmix/internal/isa"
	"fpmix/internal/prog"
)

// Program is a linked executable: a module's flattened instruction stream
// with per-instruction metadata resolved once at link time instead of per
// executed step. Linking pre-resolves every static branch and call target
// to an instruction index (replacing a hash lookup per taken branch —
// instrumented code branches on every snippet flag test) and precomputes
// the modeled cycle cost of each instruction (a pure function of the
// instruction, looked up in a map per step by the unlinked interpreter).
//
// A Program is immutable after Link and may back any number of Machines
// concurrently; all mutable state lives in the Machine. Because the
// compiled stream is immutable per program, Reset/ResetTo/rewind
// invalidate nothing — a reset machine re-enters the same compiled
// blocks.
type Program struct {
	mod    *prog.Module
	instrs []isa.Instr
	entry  int32
	// targets[i] is the resolved instruction index of instrs[i]'s branch
	// or call target, or -1 when the instruction has none (or it does not
	// resolve to an instruction — execution then faults through the slow
	// path, exactly as unlinked machines do).
	targets []int32
	// costs[i] is the modeled cycle cost of instrs[i].
	costs []uint64
	// compiled is the direct-threaded block stream Run's fast dispatch
	// tier executes (see compile.go).
	compiled *compiled
	// shadowed is the same block stream with the shadow hook compiled in,
	// which shadow-enabled machines run instead (see shadowStream). Built
	// on first use: most programs never run with the shadow on.
	shadowOnce sync.Once
	shadowed   *compiled
}

// Link validates m and builds its linked program.
func Link(m *prog.Module) (*Program, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return linkStream(m, m.Instructions())
}

// linkStream links instrs, an address-sorted instruction stream with m's
// entry, data segment and memory size, without validating the layout
// (a slotted stream's tail gaps fail prog.Validate).
func linkStream(m *prog.Module, instrs []isa.Instr) (*Program, error) {
	lp := &Program{mod: m, instrs: instrs}
	lp.targets = make([]int32, len(lp.instrs))
	lp.costs = make([]uint64, len(lp.instrs))
	for i := range lp.instrs {
		in := &lp.instrs[i]
		lp.costs[i] = cost(in)
		lp.targets[i] = -1
		if in.Op.IsBranch() {
			if idx, ok := lp.idxOf(uint64(in.A.Imm)); ok {
				lp.targets[i] = idx
			}
		}
	}
	idx, ok := lp.idxOf(m.Entry)
	if !ok {
		return nil, &Fault{Kind: FaultBadPC, PC: m.Entry, Detail: "entry not an instruction"}
	}
	lp.entry = idx
	lp.compiled = compileProgram(lp)
	return lp, nil
}

// Module returns the module the program was linked from.
func (lp *Program) Module() *prog.Module { return lp.mod }

// idxOf resolves an address to an instruction index by binary search (the
// flattened stream is address-sorted).
func (lp *Program) idxOf(addr uint64) (int32, bool) {
	i := sort.Search(len(lp.instrs), func(i int) bool { return lp.instrs[i].Addr >= addr })
	if i < len(lp.instrs) && lp.instrs[i].Addr == addr {
		return int32(i), true
	}
	return 0, false
}

// NewMachine creates a machine executing the linked program, with zeroed
// registers, the data segment copied into memory, the stack pointer at the
// top of memory and the program counter at the entry point. It runs
// identically to a vm.New machine on the same module, only faster.
func (lp *Program) NewMachine() *Machine {
	m := &Machine{}
	m.ResetTo(lp)
	return m
}

// ResetTo rebinds the machine to lp and rewinds all execution state —
// registers, flags, counters, outputs and the memory image — reusing the
// machine's existing buffers instead of reallocating. Previously returned
// Out slices and Counts are invalidated. Caller-set policy fields
// (MaxSteps, Host, TrapUnreplaced, NoCompile) are preserved; armed
// injected traps are disarmed (re-arm after the reset if wanted).
func (m *Machine) ResetTo(lp *Program) {
	m.lp = lp
	m.prog = lp.mod
	m.instrs = lp.instrs
	m.addrIdx = nil
	m.targets = lp.targets
	m.costs = lp.costs
	m.rewind()
}

// Reset is ResetTo for an unlinked module: it links p (or reuses the
// current program when the machine is already executing p) and rewinds.
func (m *Machine) Reset(p *prog.Module) error {
	if m.lp != nil && m.lp.mod == p {
		m.rewind()
		return nil
	}
	lp, err := Link(p)
	if err != nil {
		return err
	}
	m.ResetTo(lp)
	return nil
}

// rewind restores the pristine start-of-run state for the bound program.
// Armed injected traps are per-run state, not policy, and are disarmed.
func (m *Machine) rewind() {
	m.GPR = [isa.NumGPR]uint64{}
	m.XMM = [isa.NumXMM][2]uint64{}
	m.eq, m.ltS, m.ltU = false, false, false
	m.injectAt = 0
	m.Out = m.Out[:0]
	m.Cycles = 0
	m.Steps = 0
	m.halted = false
	if cap(m.counts) >= len(m.instrs) {
		m.counts = m.counts[:len(m.instrs)]
		clear(m.counts)
	} else {
		m.counts = make([]uint64, len(m.instrs))
	}
	size := m.prog.MemSize
	if uint64(cap(m.Mem)) >= size {
		m.Mem = m.Mem[:size]
		clear(m.Mem)
	} else {
		m.Mem = make([]byte, size)
	}
	copy(m.Mem[prog.DataBase:], m.prog.Data)
	m.GPR[isa.RSP] = size &^ 15
	m.pcIdx = m.lp.entry
	if m.shadow != nil {
		m.shadow.reset(len(m.instrs), size)
	}
	m.rewindTrack()
}
