package cfg

import (
	"fmt"
	"sort"

	"fpmix/internal/isa"
	"fpmix/internal/prog"
)

// Slotted layout: one address map shared by every configuration.
//
// Rewrite lays each replacement sequence out at exactly its encoded size,
// so two configurations of the same module place the shared instructions
// at different addresses as soon as one replacement site differs.
// RewriteSlotted instead reserves a fixed-size slot at every replacement
// site — the maximum encoded size over all of the site's variants — and
// lays the rest of the module out against those slots. The resulting
// address map is identical for every choice of variants: shared
// instructions keep one address across all configurations, and each
// site's variants are relocated once, to the same slot base. That is what
// lets a machine snapshot taken under one configuration be restored under
// another (the program counter and instruction counts translate by
// address), and what lets a linker re-splice only the sites whose variant
// changed. It is the search's one per-configuration builder.
//
// A variant shorter than its slot leaves a gap at the slot tail. Execution
// never reaches the gap — the virtual machine advances by instruction
// index, not by address — but the skeleton module RewriteSlotted returns
// fails Module.Validate (which insists on contiguous encodings) and must
// not be serialized to an image. It exists to feed vm.NewIncrementalLinker.

// Expansion is a pre-expanded replacement sequence with its layout
// metadata computed once: per-instruction byte offsets and the indices of
// branch instructions needing fixup. A precision search builds one
// Expansion per (site, variant) and RewriteSlotted relocates each into its
// slot exactly once.
//
// The Instrs slice is treated as immutable by RewriteSlotted (sequences
// are copied before relocation), so one Expansion may serve any number of
// layouts.
type Expansion struct {
	Instrs   []isa.Instr
	offs     []uint32 // byte offset of each instruction within the expansion
	size     uint64   // total encoded size in bytes
	branches []int32  // indices of instructions with an Imm branch target
}

// NewExpansion precomputes the layout metadata for seq. The caller must
// not mutate seq afterwards.
func NewExpansion(seq []isa.Instr) *Expansion {
	e := &Expansion{Instrs: seq, offs: make([]uint32, len(seq))}
	for i := range seq {
		e.offs[i] = uint32(e.size)
		e.size += uint64(isa.EncodedSize(seq[i]))
		if seq[i].Op.IsBranch() {
			e.branches = append(e.branches, int32(i))
		}
	}
	return e
}

// Slot describes one replacement site's variants. Entries are indexed by a
// caller-defined variant number; a nil entry means the variant is
// unavailable at this site (selecting it is the caller's error to surface).
// Variants[0] must be non-nil: it is the variant materialized in the
// skeleton module.
type Slot struct {
	Variants []*Expansion
}

// SlottedSite is one replacement site of the stable layout: the slot base
// address and every variant's instruction sequence relocated to it.
type SlottedSite struct {
	OldAddr uint64 // the replaced instruction's address in the input module
	Addr    uint64 // slot base address in the stable layout
	Size    uint64 // slot byte size (max over available variants)
	// Variants[v] is the relocated sequence for variant v, nil when the
	// variant is unavailable. Variants[0] is what the skeleton holds.
	Variants [][]isa.Instr
}

// SlotExpander returns the slot for a replacement site, or nil to keep the
// instruction as shared (non-replaceable) code.
type SlotExpander func(in isa.Instr) (*Slot, error)

// RewriteSlotted lays m out with a fixed-size slot at every site slotFor
// recognizes and returns the skeleton module (each slot holding variant 0)
// plus the relocated variant table, in address order. The skeleton is not
// validated — slots shorter than their size break the contiguity invariant
// by design — and must only be consumed by layout-aware code.
func RewriteSlotted(m *prog.Module, slotFor SlotExpander) (*prog.Module, []SlottedSite, error) {
	type site struct {
		oldAddr uint64
		slot    *Slot
		newAddr uint64
		size    uint64
		funcIdx int
	}
	type shared struct {
		in      isa.Instr
		newAddr uint64
		funcIdx int
	}

	// Pass 1: lay out. Slots are sized to their largest available variant,
	// so the address assignment is independent of any variant choice.
	addrMap := make(map[uint64]uint64, 1024) // old -> new
	funcs := make([]*prog.Func, len(m.Funcs))
	var sites []site
	var shareds []shared
	addr := prog.CodeBase
	for fi, f := range m.Funcs {
		funcs[fi] = &prog.Func{Name: f.Name, Addr: addr}
		for i := range f.Instrs {
			in := f.Instrs[i]
			slot, err := slotFor(in)
			if err != nil {
				return nil, nil, fmt.Errorf("cfg: slotting %s at %#x: %w", in.Op, in.Addr, err)
			}
			if slot == nil {
				addrMap[in.Addr] = addr
				shareds = append(shareds, shared{in: in, newAddr: addr, funcIdx: fi})
				addr += uint64(isa.EncodedSize(in))
				continue
			}
			if len(slot.Variants) == 0 || slot.Variants[0] == nil {
				return nil, nil, fmt.Errorf("cfg: slot at %#x has no variant 0", in.Addr)
			}
			var size uint64
			for _, e := range slot.Variants {
				if e == nil {
					continue
				}
				if len(e.Instrs) == 0 {
					return nil, nil, fmt.Errorf("cfg: empty slot variant at %#x", in.Addr)
				}
				if e.size > size {
					size = e.size
				}
			}
			addrMap[in.Addr] = addr
			sites = append(sites, site{oldAddr: in.Addr, slot: slot, newAddr: addr, size: size, funcIdx: fi})
			addr += size
		}
		funcs[fi].End = addr
	}

	// relocate copies seq to base and fixes its branch targets: snippet
	// labels resolve within the sequence, external targets through the
	// (variant-independent) address map.
	relocate := func(e *Expansion, base uint64, oldAddr uint64) ([]isa.Instr, error) {
		out := append([]isa.Instr(nil), e.Instrs...)
		for k := range out {
			out[k].Addr = base + uint64(e.offs[k])
		}
		for _, bi := range e.branches {
			in := &out[bi]
			t := in.A.Imm
			if t >= LabelBase {
				idx := int(t - LabelBase)
				if idx < 0 || idx >= len(out) {
					return nil, fmt.Errorf("cfg: snippet label %d out of range at %#x", idx, oldAddr)
				}
				in.A.Imm = int64(base + uint64(e.offs[idx]))
				continue
			}
			na, ok := addrMap[uint64(t)]
			if !ok {
				return nil, fmt.Errorf("cfg: %s at old %#x targets unknown address %#x", in.Op, oldAddr, uint64(t))
			}
			in.A.Imm = int64(na)
		}
		return out, nil
	}

	// Pass 2: relocate shared instructions and every site variant.
	outSites := make([]SlottedSite, 0, len(sites))
	perFunc := make([][]isa.Instr, len(m.Funcs))
	for _, s := range shareds {
		in := s.in
		in.Addr = s.newAddr
		if in.Op.IsBranch() {
			t := in.A.Imm
			if t >= LabelBase {
				return nil, nil, fmt.Errorf("cfg: stray label target at %#x", s.in.Addr)
			}
			na, ok := addrMap[uint64(t)]
			if !ok {
				return nil, nil, fmt.Errorf("cfg: %s at old %#x targets unknown address %#x", in.Op, s.in.Addr, uint64(t))
			}
			in.A.Imm = int64(na)
		}
		perFunc[s.funcIdx] = append(perFunc[s.funcIdx], in)
	}
	for _, s := range sites {
		ss := SlottedSite{
			OldAddr:  s.oldAddr,
			Addr:     s.newAddr,
			Size:     s.size,
			Variants: make([][]isa.Instr, len(s.slot.Variants)),
		}
		for v, e := range s.slot.Variants {
			if e == nil {
				continue
			}
			seq, err := relocate(e, s.newAddr, s.oldAddr)
			if err != nil {
				return nil, nil, err
			}
			ss.Variants[v] = seq
		}
		perFunc[s.funcIdx] = append(perFunc[s.funcIdx], ss.Variants[0]...)
		outSites = append(outSites, ss)
	}
	// Instructions were appended shared-first, then sites; restore address
	// order within each function.
	for fi := range perFunc {
		ins := perFunc[fi]
		sortByAddr(ins)
		funcs[fi].Instrs = ins
	}
	sortSites(outSites)

	entry, ok := addrMap[m.Entry]
	if !ok {
		return nil, nil, fmt.Errorf("cfg: entry %#x not mapped", m.Entry)
	}
	out := &prog.Module{
		Name:    m.Name,
		Funcs:   funcs,
		Entry:   entry,
		Data:    append([]byte(nil), m.Data...),
		MemSize: m.MemSize,
	}
	if m.Debug != nil {
		out.Debug = make(map[uint64]string, len(m.Debug))
		for old, lbl := range m.Debug {
			if na, ok := addrMap[old]; ok {
				out.Debug[na] = lbl
			}
		}
	}
	return out, outSites, nil
}

func sortByAddr(ins []isa.Instr) {
	sort.Slice(ins, func(i, j int) bool { return ins[i].Addr < ins[j].Addr })
}

func sortSites(ss []SlottedSite) {
	sort.Slice(ss, func(i, j int) bool { return ss[i].Addr < ss[j].Addr })
}
