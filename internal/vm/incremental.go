package vm

import (
	"fmt"
	"sort"
	"sync"

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
// Superinstructions follow Link exactly. A match reads at most
// maxFuseSpan instructions (fuse.go), so each fragment caches the
// superinstructions whose whole window lies inside it, and the last
// maxFuseSpan-1 indices of every fragment but the stream's last are
// matched per assembly over the window reaching into the fragments after
// it. Those boundary matches are cached too, per fragment and per variant
// choice of every site the window reaches, so a warm assembly creates no
// closures and the fused spans are exactly those Link finds in the same
// flattened stream — FP arithmetic alone in its slot fuses with the load
// before it and the arithmetic and store after it.
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
// pre-resolved branches. fused holds the superinstructions starting at
// indices whose match window lies inside the fragment: all of them for
// the stream's last unit, every index but the last maxFuseSpan-1
// otherwise.
type ilFrag struct {
	instrs   []isa.Instr
	costs    []uint64
	ops      []microOp
	fused    []fusedOp
	branches []ilBranch
}

func (f *ilFrag) compile(last bool) {
	f.costs = make([]uint64, len(f.instrs))
	for i := range f.instrs {
		f.costs[i] = cost(&f.instrs[i])
	}
	f.ops = compileOps(f.instrs)
	to := len(f.instrs)
	if !last {
		to = tailStart(len(f.instrs))
	}
	f.fused = matchRange(f.instrs, 0, to, false)
}

// tailStart is the first index of an n-instruction fragment whose match
// window may reach past its end.
func tailStart(n int) int { return max(0, n-(maxFuseSpan-1)) }

// ilUnit is one interleaving unit of the layout: a shared segment or a
// replacement site (with one fragment per variant).
type ilUnit struct {
	site     int      // site index, or -1 for a shared segment
	frag     ilFrag   // segments only
	variants []ilFrag // sites only; nil instrs = unavailable variant
	// cross caches the superinstructions at the unit's tail indices,
	// keyed by the variant choices of the sites their windows reach
	// (crossFused); guarded by IncrementalLinker.mu.
	cross map[string][]fusedOp
}

// IncrementalLinker assembles Programs of a stable slotted layout from
// cached compiled fragments. Apart from the boundary superinstruction
// cache, which mu guards, it is immutable after construction; it is safe
// for concurrent Assemble calls.
type IncrementalLinker struct {
	mod        *prog.Module
	units      []ilUnit
	siteUnit   []int32 // unit index of each site
	entryUnit  int32
	entryLocal int32

	mu sync.RWMutex
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
	il := &IncrementalLinker{mod: skeleton}

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
		if len(s.Variants) > 256 {
			return nil, fmt.Errorf("vm: incremental link: site %#x has %d variants, at most 256", s.Addr, len(s.Variants))
		}
		u := ilUnit{site: si, variants: make([]ilFrag, len(s.Variants))}
		for v, seq := range s.Variants {
			if seq == nil {
				continue
			}
			u.variants[v] = ilFrag{instrs: append([]isa.Instr(nil), seq...)}
		}
		il.siteUnit = append(il.siteUnit, int32(len(il.units)))
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
		last := ui == len(il.units)-1
		if u.site < 0 {
			u.frag.compile(last)
			for i := range u.frag.instrs {
				locs[u.frag.instrs[i].Addr] = ilLoc{unit: int32(ui), local: int32(i)}
			}
			continue
		}
		for v := range u.variants {
			if u.variants[v].instrs == nil {
				continue
			}
			u.variants[v].compile(last)
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
func (il *IncrementalLinker) Sites() int { return len(il.siteUnit) }

// Module returns the skeleton module; every assembled Program reports it
// as its module (same entry, data segment and memory size by
// construction).
func (il *IncrementalLinker) Module() *prog.Module { return il.mod }

// Assemble splices the Program selecting variant choices[k] for site k.
// The result behaves exactly like vm.Link of the equivalently instrumented
// module — same verdicts, outputs and accounting, and the superinstructions
// Link finds in the same flattened stream — with the stable slotted
// address map shared by every assembly.
//
// split names the sites whose slot bases must begin a basic block: a
// breakpoint stop there is then served from the compiled tier's dispatch
// loop instead of routing the run per-step. Only a run that arms such
// stops needs them — the fork-point donor pass arms one at every
// candidate slot. With no split sites the block partition is Link's over
// the same flattened stream, so a run crosses each slot without an extra
// dispatch; a machine restored at a slot base that lies mid-block steps
// to the next leader, as after a RET into a block body.
func (il *IncrementalLinker) Assemble(choices []int, split ...int) (*Program, error) {
	if len(choices) != len(il.siteUnit) {
		return nil, fmt.Errorf("vm: assemble: %d choices for %d sites", len(choices), len(il.siteUnit))
	}
	// Pass 1: pick fragments, lay out unit start indices.
	frags := make([]*ilFrag, len(il.units))
	starts := make([]int32, len(il.units)+1)
	n := int32(0)
	for ui := range il.units {
		u := &il.units[ui]
		f := &u.frag
		if u.site >= 0 {
			v := choices[u.site]
			if v < 0 || v >= len(u.variants) || u.variants[v].instrs == nil {
				return nil, fmt.Errorf("vm: assemble: site %d has no variant %d", u.site, v)
			}
			f = &u.variants[v]
		}
		frags[ui] = f
		starts[ui] = n
		n += int32(len(f.instrs))
	}
	starts[len(il.units)] = n
	cross := il.crossFused(frags, choices)
	nfused := 0
	for ui, f := range frags {
		nfused += len(f.fused) + len(cross[ui])
	}

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
		for _, fo := range cross[ui] {
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
	var slotLeaders []int32
	for _, k := range split {
		if k < 0 || k >= len(il.siteUnit) {
			return nil, fmt.Errorf("vm: assemble: split site %d of %d", k, len(il.siteUnit))
		}
		slotLeaders = append(slotLeaders, starts[il.siteUnit[k]])
	}
	lp.compiled = compileProgramWith(lp, ops, fused, slotLeaders)
	return lp, nil
}

// crossFused returns, per unit, the superinstructions at its tail indices
// (tailStart on; indexed within the unit's fragment), whose match windows
// reach into the units after it; frags are the assembly's fragments. A
// window's content is fixed by the variant choices of its unit (when a
// site) and of every site until maxFuseSpan-1 instructions past the
// unit's end, so those choices key the unit's cache. Every lookup runs
// under one read lock; a miss matches its window once, outside the lock.
func (il *IncrementalLinker) crossFused(frags []*ilFrag, choices []int) [][]fusedOp {
	cross := make([][]fusedOp, len(frags))
	type miss struct {
		ui, last int
		key      string
	}
	var misses []miss
	key := make([]byte, 0, maxFuseSpan)
	il.mu.RLock()
	for ui := 0; ui+1 < len(frags); ui++ {
		key = key[:0]
		if s := il.units[ui].site; s >= 0 {
			key = append(key, byte(choices[s]))
		}
		need, last := maxFuseSpan-1, ui
		for k := ui + 1; k < len(frags) && need > 0; k++ {
			if s := il.units[k].site; s >= 0 {
				key = append(key, byte(choices[s]))
			}
			need -= len(frags[k].instrs)
			last = k
		}
		f, ok := il.units[ui].cross[string(key)]
		if !ok {
			misses = append(misses, miss{ui, last, string(key)})
		}
		cross[ui] = f
	}
	il.mu.RUnlock()
	if len(misses) == 0 {
		return cross
	}

	for _, ms := range misses {
		f := frags[ms.ui]
		from := tailStart(len(f.instrs))
		tail := len(f.instrs) - from
		win := make([]isa.Instr, 0, tail+maxFuseSpan-1)
		win = append(win, f.instrs[from:]...)
		for k := ms.ui + 1; k <= ms.last; k++ {
			win = append(win, frags[k].instrs[:min(len(frags[k].instrs), cap(win)-len(win))]...)
		}
		fused := matchRange(win, 0, tail, false)
		for i := range fused {
			fused[i].at += int32(from)
		}
		cross[ms.ui] = fused
	}
	il.mu.Lock()
	defer il.mu.Unlock()
	for _, ms := range misses {
		u := &il.units[ms.ui]
		if prev, ok := u.cross[ms.key]; ok {
			cross[ms.ui] = prev // another assembly cached it first
			continue
		}
		if u.cross == nil {
			u.cross = make(map[string][]fusedOp)
		}
		u.cross[ms.key] = cross[ms.ui]
	}
	return cross
}
