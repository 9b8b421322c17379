package replace

import (
	"fpmix/internal/cfg"
	"fpmix/internal/isa"
	"fpmix/internal/prog"
)

// CompiledSnippets caches, per candidate instruction of a module, the
// fully generated single- and double-precision replacement sequences with
// their layout metadata. A precision search evaluates hundreds of
// configurations of the same module; snippet generation depends only on
// the instruction and the snippet options, never on the configuration, so
// the sequences are compiled once and laid out once, as the variants of
// the stable slotted layout (Stable) every configuration is assembled
// from.
//
// A CompiledSnippets table is immutable after Precompile.
type CompiledSnippets struct {
	module *prog.Module
	opts   InstrumentOptions
	// single and double are keyed by candidate instruction address. A nil
	// entry (address present, value nil) means the instruction needs no
	// wrapper at that precision (double producers, skipped wrappers).
	single map[uint64]*cfg.Expansion
	double map[uint64]*cfg.Expansion
	// doubleSrcOnly and doubleDstOnly are the narrowed double wrappers
	// checking only the source respectively only the destination operand,
	// present when the narrowed form is strictly shorter than the full
	// wrapper. They are never sound whole-configuration choices; the
	// stable layout exposes them as extra variants that the fork-point
	// search selects per configuration when its flag analysis proves the
	// other operand clean.
	doubleSrcOnly map[uint64]*cfg.Expansion
	doubleDstOnly map[uint64]*cfg.Expansion
	// Snippet generation can fail for individual instructions (e.g.
	// RSP-relative memory operands). InstrumentMap only generates the
	// sequence a configuration asks for, so to stay equivalent the error
	// is recorded here (StableSite.SingleErr/DoubleErr) and surfaced only
	// when an assembly actually requests that precision for that address.
	singleErr map[uint64]error
	doubleErr map[uint64]error
}

// Precompile generates and caches the replacement sequences for every
// candidate instruction of m under the given options.
func Precompile(m *prog.Module, opts InstrumentOptions) (*CompiledSnippets, error) {
	cs := &CompiledSnippets{
		module:        m,
		opts:          opts,
		single:        make(map[uint64]*cfg.Expansion),
		double:        make(map[uint64]*cfg.Expansion),
		doubleSrcOnly: make(map[uint64]*cfg.Expansion),
		doubleDstOnly: make(map[uint64]*cfg.Expansion),
		singleErr:     make(map[uint64]error),
		doubleErr:     make(map[uint64]error),
	}
	ana := opts.analysis(m)
	for _, f := range m.Funcs {
		for _, in := range f.Instrs {
			if !isa.IsCandidate(in.Op) {
				continue
			}
			so := opts.siteOptions(ana, in.Addr)
			if sseq, err := SingleSnippet(in, so); err != nil {
				cs.singleErr[in.Addr] = err
			} else {
				cs.single[in.Addr] = cfg.NewExpansion(sseq)
			}
			if opts.SkipDoubleSnippets {
				continue
			}
			dseq, err := DoubleSnippet(in, so)
			switch {
			case err != nil:
				cs.doubleErr[in.Addr] = err
			case dseq != nil:
				cs.double[in.Addr] = cfg.NewExpansion(dseq)
				// Narrowed wrappers, cached only when eliding the other
				// operand's check actually shortens the sequence (a site
				// whose full wrapper checks a single operand gains
				// nothing over it).
				srcSo, dstSo := so, so
				srcSo.CleanDstInput = true
				dstSo.CleanSrcInput = true
				if seq, err := DoubleSnippet(in, srcSo); err == nil && seq != nil && len(seq) < len(dseq) {
					cs.doubleSrcOnly[in.Addr] = cfg.NewExpansion(seq)
				}
				if seq, err := DoubleSnippet(in, dstSo); err == nil && seq != nil && len(seq) < len(dseq) {
					cs.doubleDstOnly[in.Addr] = cfg.NewExpansion(seq)
				}
			}
		}
	}
	return cs, nil
}
