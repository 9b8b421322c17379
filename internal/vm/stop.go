package vm

import "fmt"

// Breakpoint stops. A machine can carry a set of stop addresses; Run then
// returns a *Stopped — not a *Fault — immediately before executing an
// instruction at one of them, with all machine state (registers, memory,
// accounting, program counter) exactly as it was at that boundary, so the
// run can be snapshotted and resumed. The fork-point planner uses this to
// drive the donor pass: one run of the all-double configuration with a
// stop at every candidate replacement site yields a snapshot of the
// shared prefix at each site's first dynamic execution.
//
// Stops are checked before the instruction executes, so resuming Run with
// the address still in the set stops again without progress; remove the
// address (ClearStop) before resuming past it. A stop set whose addresses
// all begin basic blocks is served from the compiled tier's dispatch loop
// (IncrementalLinker.Assemble makes the slot bases of the sites it is
// told to split block leaders for this, and the donor pass names every
// slot it stops at); a stop inside a block routes the run to the
// per-step tier, preserving exact semantics either way.

// Stopped is the non-fault error Run returns when execution reaches a
// stop address.
type Stopped struct {
	PC    uint64 // address of the instruction about to execute
	Steps uint64 // instructions executed so far
}

func (s *Stopped) Error() string {
	return fmt.Sprintf("vm: stopped at %#x after %d steps", s.PC, s.Steps)
}

// StopAt adds addr to the machine's stop set.
func (m *Machine) StopAt(addr uint64) {
	if m.stops == nil {
		m.stops = make(map[uint64]bool)
	}
	m.stops[addr] = true
}

// ClearStop removes addr from the stop set.
func (m *Machine) ClearStop(addr uint64) {
	delete(m.stops, addr)
	if len(m.stops) == 0 {
		m.stops = nil
	}
}

// ClearStops removes every stop address.
func (m *Machine) ClearStops() { m.stops = nil }

// stopCheck reports the pending stop at the current program counter, if
// any.
func (m *Machine) stopCheck() error {
	if int(m.pcIdx) < len(m.instrs) && m.pcIdx >= 0 {
		if addr := m.instrs[m.pcIdx].Addr; m.stops[addr] {
			return &Stopped{PC: addr, Steps: m.Steps}
		}
	}
	return nil
}
