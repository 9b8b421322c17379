package replace

import (
	"fmt"
	"sort"

	"fpmix/internal/cfg"
	"fpmix/internal/config"
	"fpmix/internal/isa"
	"fpmix/internal/prog"
)

// Stable-layout instrumentation: one address map for every configuration.
//
// The per-configuration pipeline (Instrument / InstrumentMap) lays each
// module out at the exact encoded size of the chosen sequences, so
// configurations place shared code at diverging addresses. Stable builds
// the slotted alternative: every candidate site occupies a fixed-size slot
// large enough for any of its variants, so the double, single and bare
// (ignored) forms of a site are interchangeable without moving a single
// shared instruction. The fork-point search requires this — a machine
// snapshot taken under the all-double donor configuration restores under
// any sibling configuration because the program counter and instruction
// counts translate one-to-one by address. It is also the search's only
// per-configuration builder: a program assembled from it with VariantFor
// choices runs step-for-step like InstrumentMap's (same outputs, steps,
// cycles and faults; only addresses differ).

// Variant indices of a stable site, used with StableSite.Variants and
// vm-level incremental assembly.
const (
	// VariantDouble is the double-precision wrapper (or the bare
	// instruction when no wrapper is needed); the skeleton's content.
	VariantDouble = 0
	// VariantSingle is the single-precision replacement sequence.
	VariantSingle = 1
	// VariantBare is the original instruction, untouched (config.Ignore).
	VariantBare = 2
	// VariantDoubleSrcOnly is the narrowed double wrapper checking only
	// the source (B) operand, selectable when a per-configuration flag
	// analysis proves the destination operand clean. Nil when the full
	// wrapper checks no other operand anyway.
	VariantDoubleSrcOnly = 3
	// VariantDoubleDstOnly is the narrowed double wrapper checking only
	// the destination-read-as-source (A) operand, selectable when the
	// source operand is proven clean. Nil when it would not be shorter
	// than the full wrapper.
	VariantDoubleDstOnly = 4
	// NumVariants is the variant count of every stable site.
	NumVariants = 5
)

// VariantFor maps an effective precision to its stable variant index.
func VariantFor(p config.Precision) int {
	switch p {
	case config.Single:
		return VariantSingle
	case config.Ignore:
		return VariantBare
	default:
		return VariantDouble
	}
}

// StableSite is one candidate site of a stable layout.
type StableSite struct {
	OldAddr uint64 // candidate instruction address in the source module
	Addr    uint64 // slot base address in the stable layout
	Size    uint64 // slot byte size
	// Variants holds the relocated sequences, indexed by VariantDouble /
	// VariantSingle / VariantBare. VariantSingle is nil when snippet
	// generation failed for the site; requesting it surfaces SingleErr.
	Variants [][]isa.Instr
	// SingleErr / DoubleErr record per-site snippet-generation failures,
	// surfaced only when a configuration selects the failing variant —
	// matching InstrumentMap, which generates sequences on demand.
	SingleErr error
	DoubleErr error
}

// StableProgram is the slotted form of a module: the skeleton (every slot
// holding its double variant — the search's base configuration) plus the
// site table. The skeleton deliberately fails prog.Validate when any slot
// has a tail gap; it must only be consumed by layout-aware code
// (vm.NewIncrementalLinker), never serialized.
type StableProgram struct {
	Skeleton *prog.Module
	Sites    []StableSite
	// stableAddrs[i] is the stable address of source instruction
	// srcAddrs[i] (a site's slot base), in address order.
	stableAddrs, srcAddrs []uint64
}

// SourceAddr maps a stable-layout address back to the source module: a
// PC inside a slot [Addr, Addr+Size) is the site's candidate instruction
// (StableSite.OldAddr), a PC in shared code is its source instruction.
// Addresses below the code are returned unchanged.
func (sp *StableProgram) SourceAddr(pc uint64) uint64 {
	i := sort.Search(len(sp.stableAddrs), func(i int) bool { return sp.stableAddrs[i] > pc }) - 1
	if i < 0 {
		return pc
	}
	return sp.srcAddrs[i]
}

// Stable builds the stable slotted layout from the precompiled snippet
// table. The skeleton materializes every site's double variant, so running
// it is the base configuration of the search.
func (cs *CompiledSnippets) Stable() (*StableProgram, error) {
	if cs.opts.SkipDoubleSnippets {
		return nil, fmt.Errorf("replace: stable layout requires double snippets (SkipDoubleSnippets set)")
	}
	skeleton, slotted, err := cfg.RewriteSlotted(cs.module, func(in isa.Instr) (*cfg.Slot, error) {
		if !isa.IsCandidate(in.Op) {
			return nil, nil
		}
		bare := cfg.NewExpansion([]isa.Instr{in})
		slot := &cfg.Slot{Variants: make([]*cfg.Expansion, NumVariants)}
		slot.Variants[VariantBare] = bare
		if e := cs.double[in.Addr]; e != nil {
			slot.Variants[VariantDouble] = e
		} else if cs.doubleErr[in.Addr] == nil {
			// No wrapper needed at double precision: the bare instruction
			// is the double variant.
			slot.Variants[VariantDouble] = bare
		} else {
			// Double generation failed. The skeleton needs variant 0, and
			// the base configuration would fail identically through the
			// per-configuration pipeline, so surface it now.
			return nil, cs.doubleErr[in.Addr]
		}
		if e := cs.single[in.Addr]; e != nil {
			slot.Variants[VariantSingle] = e
		} else if cs.singleErr[in.Addr] == nil {
			slot.Variants[VariantSingle] = bare
		}
		// Narrowed wrappers stay nil when Precompile found them no
		// shorter than the full wrapper; selection falls back to
		// VariantDouble, which is always equivalent.
		slot.Variants[VariantDoubleSrcOnly] = cs.doubleSrcOnly[in.Addr]
		slot.Variants[VariantDoubleDstOnly] = cs.doubleDstOnly[in.Addr]
		return slot, nil
	})
	if err != nil {
		return nil, fmt.Errorf("replace: %w", err)
	}
	sp := &StableProgram{Skeleton: skeleton, Sites: make([]StableSite, len(slotted))}
	// The skeleton keeps the source's function and instruction order, each
	// site expanded to its double variant (slotted is in address order).
	next := 0
	for fi, f := range cs.module.Funcs {
		sk := skeleton.Funcs[fi].Instrs
		for k, j := 0, 0; j < len(f.Instrs); j++ {
			sp.stableAddrs = append(sp.stableAddrs, sk[k].Addr)
			sp.srcAddrs = append(sp.srcAddrs, f.Instrs[j].Addr)
			if next < len(slotted) && slotted[next].OldAddr == f.Instrs[j].Addr {
				k += len(slotted[next].Variants[VariantDouble])
				next++
			} else {
				k++
			}
		}
	}
	for i, s := range slotted {
		sp.Sites[i] = StableSite{
			OldAddr:   s.OldAddr,
			Addr:      s.Addr,
			Size:      s.Size,
			Variants:  s.Variants,
			SingleErr: cs.singleErr[s.OldAddr],
			DoubleErr: cs.doubleErr[s.OldAddr],
		}
	}
	return sp, nil
}
