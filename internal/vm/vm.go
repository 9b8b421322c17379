// Package vm executes fpmix program images.
//
// The machine models the parts of a real CPU that matter to the
// mixed-precision analysis: a 16-entry general-purpose register file,
// sixteen 128-bit XMM registers with two 64-bit lanes, byte-addressed
// memory, x86-style flags, and exact IEEE float32/float64 arithmetic for
// single- and double-precision opcodes. Every executed instruction is
// counted (the dynamic profile the search's prioritization uses) and
// charged to a cycle cost model in which double-precision arithmetic and
// 8-byte memory traffic cost roughly twice their single-precision
// counterparts — the asymmetry mixed precision exploits.
package vm

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"fpmix/internal/isa"
	"fpmix/internal/prog"
)

// FaultKind classifies execution faults.
type FaultKind uint8

// Fault kinds.
const (
	FaultNone            FaultKind = iota
	FaultMemOOB                    // memory access out of bounds
	FaultBadPC                     // jump or fall-through to a non-instruction address
	FaultMaxSteps                  // step budget exhausted
	FaultBadSyscall                // unknown or unsupported syscall
	FaultUnreplacedInput           // double-precision op consumed a flagged value (debug mode)
	FaultHost                      // host (MPI) error
	FaultCancelled                 // run cancelled through RunContext
	FaultInjected                  // artificial trap armed by fault injection
)

func (k FaultKind) String() string {
	switch k {
	case FaultMemOOB:
		return "memory out of bounds"
	case FaultBadPC:
		return "bad program counter"
	case FaultMaxSteps:
		return "step budget exhausted"
	case FaultBadSyscall:
		return "bad syscall"
	case FaultUnreplacedInput:
		return "unreplaced flagged input"
	case FaultHost:
		return "host error"
	case FaultCancelled:
		return "run cancelled"
	case FaultInjected:
		return "injected trap"
	default:
		return "no fault"
	}
}

// Fault is the typed error returned when execution traps.
type Fault struct {
	Kind   FaultKind
	PC     uint64
	Op     isa.Op
	Detail string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("vm: %s at %#x (%s): %s", f.Kind, f.PC, f.Op, f.Detail)
}

// OutKind tags an output value's type.
type OutKind uint8

// Output value kinds.
const (
	OutF64 OutKind = iota + 1
	OutF32
	OutI64
)

// OutVal is one value the program emitted through an output syscall.
type OutVal struct {
	Kind OutKind
	Bits uint64
}

// F64 interprets the value as a float64 (for OutF64 values these are the
// raw bits, which may carry a replacement flag).
func (v OutVal) F64() float64 { return math.Float64frombits(v.Bits) }

// F32 interprets the low 32 bits as a float32.
func (v OutVal) F32() float32 { return math.Float32frombits(uint32(v.Bits)) }

// Host provides system services to a running machine. The output syscalls
// are handled by the machine itself; everything else is delegated here.
type Host interface {
	// Syscall handles syscall number num. It may read and modify machine
	// state (registers, memory).
	Syscall(m *Machine, num int64) error
}

// Machine is a single executing instance of a program image.
type Machine struct {
	GPR [isa.NumGPR]uint64
	XMM [isa.NumXMM][2]uint64
	Mem []byte

	// Flags, in x86 terms: eq ~ ZF, ltS ~ SF!=OF, ltU ~ CF.
	eq  bool
	ltS bool
	ltU bool

	// Out accumulates values emitted via output syscalls.
	Out []OutVal

	// Cycles is the modeled execution cost so far.
	Cycles uint64

	// Steps is the number of instructions executed so far.
	Steps uint64

	// MaxSteps bounds execution; 0 means DefaultMaxSteps.
	MaxSteps uint64

	// Host handles MPI and other non-output syscalls; nil means such
	// syscalls fault.
	Host Host

	// TrapUnreplaced enables the debug mode in which a double-precision
	// candidate instruction consuming an operand whose high word carries
	// the replacement flag faults instead of silently propagating NaN.
	// Snippet-generated code always upcasts before the double op, so
	// instrumented programs never trap; only values the analysis missed do
	// (paper §2.3: "anything that our analysis misses causes a crash").
	TrapUnreplaced bool

	// NoCompile forces Run onto the per-step interpreter tier even when
	// the bound program carries a compiled stream. The compiled
	// direct-threaded engine is the default for linked programs; this is
	// the differential-testing escape hatch (search Options.NoCompile,
	// fpsearch -nocompile). Like MaxSteps and Host it is caller policy,
	// preserved across Reset/ResetTo.
	NoCompile bool

	prog    *prog.Module
	instrs  []isa.Instr
	addrIdx map[uint64]int32
	counts  []uint64
	pcIdx   int32
	halted  bool

	// shadow is the single-precision shadow-value state; nil (the
	// default) disables the pass entirely — see shadow.go.
	shadow *shadowState

	// cancelled, when non-nil, is polled on the run loop: once it reads
	// true the run stops with FaultCancelled. Set by RunContext; nil (the
	// default) costs one pointer comparison per step.
	cancelled *atomic.Bool

	// injectAt, when non-zero, arms an artificial trap (fault
	// injection) at the first instruction whose step count reaches it;
	// zero (the default) costs one comparison per step. Per-run state:
	// rewind/ResetTo disarm it.
	injectAt uint64

	// Linked-program state (nil/absent on vm.New machines): the Program
	// the machine executes plus its pre-resolved branch-target table (see
	// Link).
	lp      *Program
	targets []int32

	// costs is the precomputed per-instruction cycle cost table, indexed
	// like counts. Always populated — by New for unlinked machines and by
	// ResetTo from the linked program — so neither execution tier ever
	// recomputes an instruction's cost.
	costs []uint64

	// blkExec is the compiled tier's per-block execution counter scratch,
	// expanded into counts when a compiled run ends (see compile.go).
	blkExec []uint64

	// faultOff is the constituent index at which a pattern
	// superinstruction faulted, handed to settlePartial (see fuse.go);
	// zero at every other time.
	faultOff int32

	// track, when non-nil, is the dirty-page state backing incremental
	// Snapshot/RestoreFrom (see snapshot.go); nil (the default) costs one
	// pointer comparison per executed store.
	track *memTrack

	// stops, when non-nil, is the set of breakpoint addresses Run stops
	// before executing (see stop.go). The compiled tier serves stops at
	// block leaders; a mid-block stop routes execution to the
	// instrumented tier.
	stops map[uint64]bool
}

// DefaultMaxSteps bounds runaway programs.
const DefaultMaxSteps = 500_000_000

// New creates a machine for the module with zeroed registers, the data
// segment copied into memory, the stack pointer at the top of memory and
// the program counter at the entry point.
func New(p *prog.Module) (*Machine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{prog: p}
	m.instrs = p.Instructions()
	m.addrIdx = make(map[uint64]int32, len(m.instrs))
	for i := range m.instrs {
		m.addrIdx[m.instrs[i].Addr] = int32(i)
	}
	m.counts = make([]uint64, len(m.instrs))
	m.costs = make([]uint64, len(m.instrs))
	for i := range m.instrs {
		m.costs[i] = cost(&m.instrs[i])
	}
	m.Mem = make([]byte, p.MemSize)
	copy(m.Mem[prog.DataBase:], p.Data)
	m.GPR[isa.RSP] = p.MemSize &^ 15
	idx, ok := m.addrIdx[p.Entry]
	if !ok {
		return nil, &Fault{Kind: FaultBadPC, PC: p.Entry, Detail: "entry not an instruction"}
	}
	m.pcIdx = idx
	return m, nil
}

// PC returns the address of the next instruction to execute.
func (m *Machine) PC() uint64 {
	if int(m.pcIdx) < len(m.instrs) {
		return m.instrs[m.pcIdx].Addr
	}
	return 0
}

// Halted reports whether the program has executed HALT.
func (m *Machine) Halted() bool { return m.halted }

// Counts returns the per-instruction execution counts, indexed in program
// instruction order (as returned by prog.Module.Instructions).
func (m *Machine) Counts() []uint64 { return m.counts }

// Profile returns execution counts keyed by instruction address.
func (m *Machine) Profile() map[uint64]uint64 {
	p := make(map[uint64]uint64, len(m.instrs))
	for i := range m.instrs {
		if m.counts[i] > 0 {
			p[m.instrs[i].Addr] = m.counts[i]
		}
	}
	return p
}

// Run executes until HALT, a fault, or the step budget is exhausted.
//
// Execution picks one of two dispatch tiers automatically. Machines
// bound to a linked program run on the compiled direct-threaded engine
// (pre-decoded closures, per-block accounting — see compile.go). Armed
// injected traps, TrapUnreplaced, or NoCompile route the run to the
// instrumented per-step interpreter instead, which observes every
// instruction. Shadow collection and RunContext cancellation stay on the
// compiled tier: a shadow run executes the program's shadow stream, and
// the cancellation flag is polled between blocks. Both tiers produce
// byte-identical machines and shadow records.
func (m *Machine) Run() error {
	max := m.MaxSteps
	if max == 0 {
		max = DefaultMaxSteps
	}
	if m.compiledTier() {
		return m.runCompiled(max)
	}
	return m.runInstrumented(max)
}

// runInstrumented is the per-step dispatch tier: one Step per
// instruction, with the budget, cancellation, injection and shadow hooks
// checked on every iteration.
func (m *Machine) runInstrumented(max uint64) error {
	for !m.halted {
		if m.stops != nil {
			if err := m.stopCheck(); err != nil {
				return err
			}
		}
		if m.Steps >= max {
			return &Fault{Kind: FaultMaxSteps, PC: m.PC(), Detail: fmt.Sprintf("%d steps", m.Steps)}
		}
		if m.cancelled != nil && m.cancelled.Load() {
			return &Fault{Kind: FaultCancelled, PC: m.PC(), Detail: fmt.Sprintf("after %d steps", m.Steps)}
		}
		if err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}

// RunContext executes like Run but additionally stops with FaultCancelled
// when ctx is cancelled. Cancellation is delivered through an atomic flag
// polled on the dispatch loop — every step on the instrumented tier,
// every block boundary on the compiled tier — so an expired deadline
// ends the run within one basic block at worst; a context that can never
// be cancelled falls back to Run with no polling cost.
func (m *Machine) RunContext(ctx context.Context) error {
	done := ctx.Done()
	if done == nil {
		return m.Run()
	}
	if err := ctx.Err(); err != nil {
		return &Fault{Kind: FaultCancelled, PC: m.PC(), Detail: err.Error()}
	}
	var flag atomic.Bool
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case <-done:
			flag.Store(true)
		case <-stop:
		}
	}()
	m.cancelled = &flag
	err := m.Run()
	m.cancelled = nil
	close(stop)
	wg.Wait()
	return err
}

// InjectTrapAfter arms an artificial trap: execution faults with
// FaultInjected at the first instruction at or beyond the given step
// count (1 faults the very first instruction). Fault-injection harnesses
// use it to simulate FP traps at deterministic points of a run.
func (m *Machine) InjectTrapAfter(steps uint64) {
	m.injectAt = max(steps, 1)
}

// ClearInjected disarms any armed artificial trap.
func (m *Machine) ClearInjected() { m.injectAt = 0 }

// injectCheck reports whether the armed trap fires on this instruction,
// building the fault and disarming when it does.
func (m *Machine) injectCheck(in *isa.Instr) error {
	if m.Steps < m.injectAt {
		return nil
	}
	m.injectAt = 0
	return m.fault(FaultInjected, in, fmt.Sprintf("armed trap fired at step %d", m.Steps))
}

// fault constructs a fault at the current instruction.
func (m *Machine) fault(kind FaultKind, in *isa.Instr, detail string) error {
	return &Fault{Kind: kind, PC: in.Addr, Op: in.Op, Detail: detail}
}
