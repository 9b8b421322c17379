package vm

import (
	"fmt"

	"fpmix/internal/isa"
)

// Machine-state snapshots with copy-on-write memory pages.
//
// A Snapshot captures the complete execution state of a machine between
// runs: registers, flags, accounting, emitted outputs and the memory
// image, the latter as a vector of shared immutable pages. Taking a
// snapshot copies only the pages written since the previous snapshot
// (when dirty-page tracking is enabled), and restoring one copies only
// the pages that differ from what the machine already holds — O(dirty
// pages), not O(Mem). The search's fork-point evaluation leans on this:
// one donor run of the shared all-double prefix is snapshotted at every
// candidate fork point, and each sibling configuration is evaluated from
// a restored snapshot instead of re-running the prefix.
//
// Snapshots are immutable and safe to restore concurrently from many
// machines. The program counter is captured by instruction address, and
// per-instruction counts are carried with the instruction stream they
// index, so a snapshot taken on one linked program can be restored onto
// a machine bound to a different program of the same module family —
// same memory layout, same addresses for the shared instructions — as
// long as every executed instruction exists at the same address in both
// streams (the stable-layout instrumentation guarantees this for every
// configuration of one search).

const (
	pageShift = 12
	pageSize  = 1 << pageShift
)

// pageBuf is one immutable memory page shared between snapshots. Pointer
// identity doubles as content identity: a page is never written after it
// is published in a Snapshot.
type pageBuf [pageSize]byte

// memTrack is the dirty-page state of a machine with tracking enabled.
type memTrack struct {
	// dirty marks pages written since their provenance was last set.
	dirty []bool
	// src is the page provenance: the snapshot page the machine's
	// resident page content equals, nil when unknown (dirty or never
	// restored/snapshotted).
	src []*pageBuf
}

func numPages(size uint64) int { return int((size + pageSize - 1) >> pageShift) }

func newMemTrack(size uint64) *memTrack {
	n := numPages(size)
	return &memTrack{dirty: make([]bool, n), src: make([]*pageBuf, n)}
}

// markRange records a write of width bytes at addr. Hot-path helper: the
// callers guard with a nil check, so untracked machines pay one
// predictable branch per store.
func (t *memTrack) markRange(addr uint64, width uint64) {
	p := addr >> pageShift
	if int(p) < len(t.dirty) {
		t.dirty[p] = true
		t.src[p] = nil
	}
	if q := (addr + width - 1) >> pageShift; q != p && int(q) < len(t.dirty) {
		t.dirty[q] = true
		t.src[q] = nil
	}
}

// markAll invalidates every page (host syscalls may write anywhere).
func (t *memTrack) markAll() {
	for i := range t.dirty {
		t.dirty[i] = true
		t.src[i] = nil
	}
}

// reset forgets all provenance (the memory image was rebuilt wholesale).
func (t *memTrack) reset(size uint64) {
	n := numPages(size)
	if len(t.dirty) != n {
		t.dirty = make([]bool, n)
		t.src = make([]*pageBuf, n)
		return
	}
	for i := range t.dirty {
		t.dirty[i] = false
		t.src[i] = nil
	}
}

// TrackDirtyPages enables dirty-page tracking on the machine, making
// subsequent Snapshot calls incremental (O(pages written since the last
// snapshot)) and RestoreFrom calls differential (O(pages that differ)).
// Tracking costs one predictable branch per executed store. Host (MPI)
// syscalls may write memory outside the tracked store paths, so they
// conservatively invalidate every page.
func (m *Machine) TrackDirtyPages() {
	if m.track == nil {
		m.track = newMemTrack(uint64(len(m.Mem)))
	}
}

// MarkMemWritten records an external write of n bytes at addr for
// dirty-page tracking. Code that mutates m.Mem directly — hosts, test
// harnesses — must call it (or write through the instruction set) for
// snapshots taken afterwards to be exact; the machine's own store paths
// mark automatically.
func (m *Machine) MarkMemWritten(addr, n uint64) {
	if m.track != nil && n > 0 {
		m.track.markRange(addr, n)
	}
}

// shadowSnap captures the shadow-value state of a machine with the
// shadow pass enabled.
type shadowSnap struct {
	xmm [isa.NumXMM][2]float32
	mem shadowMem

	maxRel  []float64
	sumRel  []float64
	samples []uint64
	cancel  []uint8
	diverge []uint64

	localMax     []float64
	localDiverge []uint64
}

func captureShadow(s *shadowState) *shadowSnap {
	sn := &shadowSnap{xmm: s.xmm}
	sn.mem.copyFrom(&s.mem)
	sn.maxRel = append([]float64(nil), s.maxRel...)
	sn.sumRel = append([]float64(nil), s.sumRel...)
	sn.samples = append([]uint64(nil), s.samples...)
	sn.cancel = append([]uint8(nil), s.cancel...)
	sn.diverge = append([]uint64(nil), s.diverge...)
	sn.localMax = append([]float64(nil), s.localMax...)
	sn.localDiverge = append([]uint64(nil), s.localDiverge...)
	return sn
}

func (sn *shadowSnap) restoreInto(s *shadowState) {
	s.xmm = sn.xmm
	s.mem.copyFrom(&sn.mem)
	s.maxRel = append(s.maxRel[:0], sn.maxRel...)
	s.sumRel = append(s.sumRel[:0], sn.sumRel...)
	s.samples = append(s.samples[:0], sn.samples...)
	s.cancel = append(s.cancel[:0], sn.cancel...)
	s.diverge = append(s.diverge[:0], sn.diverge...)
	s.localMax = append(s.localMax[:0], sn.localMax...)
	s.localDiverge = append(s.localDiverge[:0], sn.localDiverge...)
}

// Snapshot is an immutable capture of a machine's execution state.
type Snapshot struct {
	memSize uint64
	pages   []*pageBuf

	gpr          [isa.NumGPR]uint64
	xmm          [isa.NumXMM][2]uint64
	eq, ltS, ltU bool
	out          []OutVal
	cycles       uint64
	steps        uint64
	halted       bool

	// pcAddr is the address of the next instruction; instrs is the
	// (immutable, shared) stream the counts index, kept for restoring
	// onto machines bound to a different program of the same layout.
	pcAddr uint64
	instrs []isa.Instr
	counts []uint64

	shadow *shadowSnap
}

// Steps returns the executed-instruction count at the capture point.
func (s *Snapshot) Steps() uint64 { return s.steps }

// PC returns the address of the next instruction at the capture point.
func (s *Snapshot) PC() uint64 { return s.pcAddr }

// Snapshot captures the machine's complete execution state. It must be
// taken between runs (never from inside a hook) and with no armed
// injected trap. With dirty-page tracking enabled, pages unchanged since
// the previous Snapshot or RestoreFrom are shared, not copied.
func (m *Machine) Snapshot() (*Snapshot, error) {
	if m.injectAt != 0 {
		return nil, fmt.Errorf("vm: snapshot with an armed injected trap")
	}
	if int(m.pcIdx) >= len(m.instrs) || m.pcIdx < 0 {
		return nil, fmt.Errorf("vm: snapshot with program counter off the code segment")
	}
	s := &Snapshot{
		memSize: uint64(len(m.Mem)),
		gpr:     m.GPR,
		xmm:     m.XMM,
		eq:      m.eq, ltS: m.ltS, ltU: m.ltU,
		out:    append([]OutVal(nil), m.Out...),
		cycles: m.Cycles,
		steps:  m.Steps,
		halted: m.halted,
		pcAddr: m.instrs[m.pcIdx].Addr,
		instrs: m.instrs,
		counts: append([]uint64(nil), m.counts...),
	}
	n := numPages(s.memSize)
	s.pages = make([]*pageBuf, n)
	for i := 0; i < n; i++ {
		if m.track != nil && !m.track.dirty[i] && m.track.src[i] != nil {
			s.pages[i] = m.track.src[i]
			continue
		}
		buf := new(pageBuf)
		copy(buf[:], m.Mem[uint64(i)<<pageShift:])
		s.pages[i] = buf
		if m.track != nil {
			m.track.dirty[i] = false
			m.track.src[i] = buf
		}
	}
	if m.shadow != nil {
		s.shadow = captureShadow(m.shadow)
	}
	return s, nil
}

// RestoreFrom rewinds the machine to the snapshot's state. The machine
// must be bound to a program with the same memory size whose instruction
// stream contains, at the same address, every instruction the snapshot
// executed (identical streams restore directly; diverging streams — other
// configurations of a stable-layout search — translate the program
// counter and counts by address). Caller policy (MaxSteps, Host,
// NoCompile, TrapUnreplaced) is preserved; armed injected traps are
// disarmed. With dirty-page tracking enabled only pages differing from
// the machine's current content are copied.
func (m *Machine) RestoreFrom(s *Snapshot) error {
	if uint64(m.prog.MemSize) != s.memSize {
		return fmt.Errorf("vm: restore across memory sizes (%d != %d)", m.prog.MemSize, s.memSize)
	}
	// Resolve the program counter first so a mismatched program leaves
	// the machine untouched.
	pcIdx, err := m.snapIdx(s, s.pcAddr)
	if err != nil {
		return err
	}
	if (m.shadow != nil) != (s.shadow != nil) {
		return fmt.Errorf("vm: restore across shadow-mode boundary")
	}
	sameStream := len(m.instrs) == len(s.instrs) &&
		(len(m.instrs) == 0 || &m.instrs[0] == &s.instrs[0])
	if sameStream {
		copy(m.counts, s.counts)
	} else if err := m.translateCounts(s); err != nil {
		return err
	}

	if uint64(len(m.Mem)) != s.memSize {
		if uint64(cap(m.Mem)) >= s.memSize {
			m.Mem = m.Mem[:s.memSize]
		} else {
			m.Mem = make([]byte, s.memSize)
		}
		if m.track != nil {
			m.track.reset(s.memSize)
		}
	}
	for i, pg := range s.pages {
		if m.track != nil && !m.track.dirty[i] && m.track.src[i] == pg {
			continue
		}
		copy(m.Mem[uint64(i)<<pageShift:], pg[:])
		if m.track != nil {
			m.track.dirty[i] = false
			m.track.src[i] = pg
		}
	}

	m.GPR = s.gpr
	m.XMM = s.xmm
	m.eq, m.ltS, m.ltU = s.eq, s.ltS, s.ltU
	m.Out = append(m.Out[:0], s.out...)
	m.Cycles = s.cycles
	m.Steps = s.steps
	m.halted = s.halted
	m.pcIdx = pcIdx
	m.injectAt = 0
	clear(m.blkExec)
	clear(m.armExec)
	if s.shadow != nil {
		s.shadow.restoreInto(m.shadow)
	}
	return nil
}

// RestoreTo rebinds the machine to lp and restores the snapshot in one
// step, without the O(Mem) rewind a ResetTo would pay: page provenance
// survives the rebind, so restoring onto a machine that last restored a
// sibling snapshot copies only the pages that actually differ. lp must
// share the snapshot's memory size and stable address layout (see
// RestoreFrom). This is the fork-point evaluator's per-candidate entry:
// assemble the sibling configuration, RestoreTo it from the fork-point
// snapshot, run.
func (m *Machine) RestoreTo(lp *Program, s *Snapshot) error {
	if lp.mod.MemSize != s.memSize {
		return fmt.Errorf("vm: restore across memory sizes (%d != %d)", lp.mod.MemSize, s.memSize)
	}
	m.lp = lp
	m.prog = lp.mod
	m.instrs = lp.instrs
	m.addrIdx = nil
	m.targets = lp.targets
	m.costs = lp.costs
	if cap(m.counts) >= len(lp.instrs) {
		m.counts = m.counts[:len(lp.instrs)]
	} else {
		m.counts = make([]uint64, len(lp.instrs))
	}
	return m.RestoreFrom(s)
}

// snapIdx resolves an address to an instruction index on the machine's
// bound program.
func (m *Machine) snapIdx(s *Snapshot, addr uint64) (int32, error) {
	if m.addrIdx != nil {
		if idx, ok := m.addrIdx[addr]; ok {
			return idx, nil
		}
	} else if m.lp != nil {
		if idx, ok := m.lp.idxOf(addr); ok {
			return idx, nil
		}
	}
	return 0, fmt.Errorf("vm: restore: snapshot pc %#x is not an instruction of the bound program", addr)
}

// translateCounts carries the snapshot's per-instruction counts onto the
// machine's (different but address-compatible) instruction stream. Both
// streams are address-sorted; instructions executed under the snapshot
// must exist at the same address in the target stream, while
// instructions exclusive to either stream (diverging replacement-site
// regions) must have executed zero times.
func (m *Machine) translateCounts(s *Snapshot) error {
	clear(m.counts)
	j := 0
	for i := range s.instrs {
		c := s.counts[i]
		if c == 0 {
			continue
		}
		a := s.instrs[i].Addr
		for j < len(m.instrs) && m.instrs[j].Addr < a {
			j++
		}
		if j >= len(m.instrs) || m.instrs[j].Addr != a {
			return fmt.Errorf("vm: restore: executed instruction at %#x missing from the bound program", a)
		}
		m.counts[j] = c
	}
	return nil
}

// rewindTrack is called by rewind after the memory image is rebuilt.
func (m *Machine) rewindTrack() {
	if m.track != nil {
		m.track.reset(uint64(len(m.Mem)))
	}
}
