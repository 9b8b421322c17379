package vm

import (
	"fmt"
	"sort"

	"fpmix/internal/isa"
	"fpmix/internal/prog"
)

// Incremental linking over a stable slotted layout.
//
// Link spends almost all of its time creating the pre-decoded closures of
// the compiled tier — work that depends only on instruction content and
// address, both of which the stable layout holds constant across every
// configuration of a search. An IncrementalLinker therefore compiles each
// shared code segment and each (site, variant) fragment exactly once, and
// Assemble splices a full Program for a given variant choice out of the
// cached pieces: instruction, cost and micro-op arrays are concatenated,
// branch targets are re-based from pre-resolved (unit, offset) pairs, and
// the block stream is rebuilt from the cached closures. Only the sites
// whose variant differs from a previous assembly contribute new content —
// everything else is a copy of immutable cache — so assembling a sibling
// configuration is two orders of magnitude cheaper than a full Link.
//
// The skeleton module handed to NewIncrementalLinker comes from a slotted
// rewrite (cfg.RewriteSlotted): it deliberately fails prog.Validate when a
// slot has a tail gap, so the linker performs its own structural checks and
// never validates. Execution never reaches a gap because the machine
// advances by instruction index, not address.

// IncrementalSite is one replacement site of the stable layout, with every
// variant's relocated instruction sequence. Variants[0] must match what
// the skeleton module holds at the slot; a nil variant is unavailable and
// selecting it is an Assemble error.
type IncrementalSite struct {
	Addr     uint64 // slot base address
	Variants [][]isa.Instr
}

// ilBranch is a pre-resolved branch: instruction `local` of its fragment
// targets instruction `tlocal` of unit `unit` (-1 when the target is not a
// static instruction of the layout — execution then faults through the
// slow path, exactly as a fully linked program does).
type ilBranch struct {
	local  int32
	unit   int32
	tlocal int32
}

// ilFrag is one compiled cache fragment: an immutable instruction sequence
// with its per-instruction costs, pre-decoded micro-ops, pattern
// superinstructions (fuse.go; indexed within the fragment) and
// pre-resolved branches.
type ilFrag struct {
	instrs   []isa.Instr
	costs    []uint64
	ops      []microOp
	fused    []fusedOp
	branches []ilBranch
}

func (f *ilFrag) compile() {
	f.costs = make([]uint64, len(f.instrs))
	for i := range f.instrs {
		f.costs[i] = cost(&f.instrs[i])
	}
	f.ops, f.fused = compileFrag(f.instrs)
}

// ilUnit is one interleaving unit of the layout: a shared segment or a
// replacement site (with one fragment per variant).
type ilUnit struct {
	site     int      // site index, or -1 for a shared segment
	frag     ilFrag   // segments only
	variants []ilFrag // sites only; nil instrs = unavailable variant
}

// IncrementalLinker assembles Programs of a stable slotted layout from
// cached compiled fragments. It is immutable after construction and safe
// for concurrent Assemble calls.
type IncrementalLinker struct {
	mod        *prog.Module
	units      []ilUnit
	sites      int
	entryUnit  int32
	entryLocal int32
}

type ilLoc struct {
	unit  int32
	local int32
}

// NewIncrementalLinker builds the fragment cache for a skeleton module and
// its site table (both from a slotted rewrite; sites must be in address
// order and the skeleton must hold each site's variant 0).
func NewIncrementalLinker(skeleton *prog.Module, sites []IncrementalSite) (*IncrementalLinker, error) {
	if skeleton.MemSize == 0 {
		return nil, fmt.Errorf("vm: incremental link: zero MemSize")
	}
	if prog.DataBase+uint64(len(skeleton.Data)) > skeleton.MemSize {
		return nil, fmt.Errorf("vm: incremental link: data segment exceeds MemSize")
	}
	flat := skeleton.Instructions()
	for i := 1; i < len(flat); i++ {
		if flat[i].Addr <= flat[i-1].Addr {
			return nil, fmt.Errorf("vm: incremental link: instruction addresses not strictly increasing at %#x", flat[i].Addr)
		}
	}
	il := &IncrementalLinker{mod: skeleton, sites: len(sites)}

	// Carve the flattened stream into segment and site units.
	pos := 0
	for si, s := range sites {
		if len(s.Variants) == 0 || len(s.Variants[0]) == 0 {
			return nil, fmt.Errorf("vm: incremental link: site %#x has no variant 0", s.Addr)
		}
		start := pos + sort.Search(len(flat)-pos, func(i int) bool { return flat[pos+i].Addr >= s.Addr })
		if start >= len(flat) || flat[start].Addr != s.Addr {
			return nil, fmt.Errorf("vm: incremental link: site %#x not in skeleton", s.Addr)
		}
		n0 := len(s.Variants[0])
		if start+n0 > len(flat) {
			return nil, fmt.Errorf("vm: incremental link: site %#x variant 0 runs past the skeleton", s.Addr)
		}
		if start > pos {
			il.units = append(il.units, ilUnit{site: -1, frag: ilFrag{
				instrs: append([]isa.Instr(nil), flat[pos:start]...),
			}})
		}
		u := ilUnit{site: si, variants: make([]ilFrag, len(s.Variants))}
		for v, seq := range s.Variants {
			if seq == nil {
				continue
			}
			u.variants[v] = ilFrag{instrs: append([]isa.Instr(nil), seq...)}
		}
		il.units = append(il.units, u)
		pos = start + n0
	}
	if pos < len(flat) {
		il.units = append(il.units, ilUnit{site: -1, frag: ilFrag{
			instrs: append([]isa.Instr(nil), flat[pos:]...),
		}})
	}

	// Compile every fragment and index the variant-independent addresses:
	// all segment instructions plus each site's slot head. Mid-slot
	// addresses are variant-local and resolve only within their own
	// fragment.
	locs := make(map[uint64]ilLoc, len(flat))
	for ui := range il.units {
		u := &il.units[ui]
		if u.site < 0 {
			u.frag.compile()
			for i := range u.frag.instrs {
				locs[u.frag.instrs[i].Addr] = ilLoc{unit: int32(ui), local: int32(i)}
			}
			continue
		}
		for v := range u.variants {
			if u.variants[v].instrs == nil {
				continue
			}
			u.variants[v].compile()
		}
		locs[sites[u.site].Addr] = ilLoc{unit: int32(ui), local: 0}
	}
	resolve := func(ui int, f *ilFrag) {
		for i := range f.instrs {
			in := &f.instrs[i]
			if !in.Op.IsBranch() {
				continue
			}
			b := ilBranch{local: int32(i), unit: -1}
			t := uint64(in.A.Imm)
			if loc, ok := locs[t]; ok {
				b.unit, b.tlocal = loc.unit, loc.local
			} else {
				// A snippet-internal label target: scan the fragment.
				for j := range f.instrs {
					if f.instrs[j].Addr == t {
						b.unit, b.tlocal = int32(ui), int32(j)
						break
					}
				}
			}
			f.branches = append(f.branches, b)
		}
	}
	for ui := range il.units {
		u := &il.units[ui]
		if u.site < 0 {
			resolve(ui, &u.frag)
			continue
		}
		for v := range u.variants {
			if u.variants[v].instrs != nil {
				resolve(ui, &u.variants[v])
			}
		}
	}

	eloc, ok := locs[skeleton.Entry]
	if !ok {
		return nil, fmt.Errorf("vm: incremental link: entry %#x is not an instruction", skeleton.Entry)
	}
	il.entryUnit, il.entryLocal = eloc.unit, eloc.local
	return il, nil
}

// Sites returns the number of replacement sites of the layout.
func (il *IncrementalLinker) Sites() int { return il.sites }

// Module returns the skeleton module; every assembled Program reports it
// as its module (same entry, data segment and memory size by
// construction).
func (il *IncrementalLinker) Module() *prog.Module { return il.mod }

// Assemble splices the Program selecting variant choices[k] for site k.
// The result behaves exactly like vm.Link of the equivalently instrumented
// module — same verdicts, outputs and accounting — with the stable slotted
// address map shared by every assembly.
func (il *IncrementalLinker) Assemble(choices []int) (*Program, error) {
	if len(choices) != il.sites {
		return nil, fmt.Errorf("vm: assemble: %d choices for %d sites", len(choices), il.sites)
	}
	// Pass 1: pick fragments, lay out unit start indices. Slot bases
	// become extra block leaders of the compiled stream so a breakpoint
	// stop at any site (the fork-point donor pass arms one at every
	// candidate slot) is served from the compiled tier's dispatch loop.
	frags := make([]*ilFrag, len(il.units))
	starts := make([]int32, len(il.units)+1)
	slotLeaders := make([]int32, 0, il.sites)
	n, nfused := int32(0), 0
	for ui := range il.units {
		u := &il.units[ui]
		f := &u.frag
		if u.site >= 0 {
			v := choices[u.site]
			if v < 0 || v >= len(u.variants) || u.variants[v].instrs == nil {
				return nil, fmt.Errorf("vm: assemble: site %d has no variant %d", u.site, v)
			}
			f = &u.variants[v]
			slotLeaders = append(slotLeaders, n)
		}
		frags[ui] = f
		starts[ui] = n
		n += int32(len(f.instrs))
		nfused += len(f.fused)
	}
	starts[len(il.units)] = n

	// Pass 2: concatenate the cached arrays and re-base branch targets.
	instrs := make([]isa.Instr, n)
	costs := make([]uint64, n)
	ops := make([]microOp, n)
	fused := make([]fusedOp, 0, nfused)
	targets := make([]int32, n)
	for i := range targets {
		targets[i] = -1
	}
	for ui, f := range frags {
		base := starts[ui]
		copy(instrs[base:], f.instrs)
		copy(costs[base:], f.costs)
		copy(ops[base:], f.ops)
		for _, fo := range f.fused {
			fo.at += base
			fused = append(fused, fo)
		}
		for _, b := range f.branches {
			if b.unit >= 0 {
				targets[base+b.local] = starts[b.unit] + b.tlocal
			}
		}
	}

	lp := &Program{
		mod:     il.mod,
		instrs:  instrs,
		entry:   starts[il.entryUnit] + il.entryLocal,
		targets: targets,
		costs:   costs,
	}
	lp.compiled = compileProgramWith(lp, ops, fused, slotLeaders)
	return lp, nil
}
