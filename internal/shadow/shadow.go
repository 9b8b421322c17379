// Package shadow is the shadow-value numerical analysis: one
// instrumented run per kernel in which the VM carries a single-precision
// shadow beside every double, producing a per-instruction sensitivity
// profile — relative error between shadow and reference, catastrophic
// cancellation, comparison/truncation divergences — plus error-flow
// attribution aggregated up the module/function/block piece tree. The
// profile is what lets the precision search order candidate pieces by
// predicted single-precision safety and skip aggregates that are
// predictably unsafe, instead of treating every piece as an opaque
// experiment (the step from the paper's breadth-first search toward
// CRAFT's shadow-value mode).
package shadow

import (
	"fmt"
	"sort"

	"fpmix/internal/config"
	"fpmix/internal/prog"
	"fpmix/internal/vm"
)

// Record is one instruction's sensitivity measurement.
type Record struct {
	Addr uint64
	Op   string // mnemonic, for reports; not used by consumers

	Execs   uint64 // executions
	Samples uint64 // executions that contributed an error sample

	// MaxRelErr and MeanRelErr are relative error between the
	// single-precision shadow and the double reference (scale floored at
	// 1, capped at 1.0; a discrete divergence records as 1.0).
	MaxRelErr  float64
	MeanRelErr float64

	// MaxCancelBits is the worst catastrophic cancellation on an
	// add/subtract.
	MaxCancelBits uint8

	// Divergences counts comparison/truncation outcome mismatches.
	Divergences uint64

	// LocalMaxErr and LocalDivergences are the same measured with true
	// double operands rounded to single for just this one step: the error
	// the instruction introduces intrinsically, free of upstream shadow
	// drift. This is the signal the search's prediction gate uses — the
	// global numbers above overestimate the effect of lowering one piece,
	// because every instruction downstream of a drifting value inherits
	// its error.
	LocalMaxErr      float64
	LocalDivergences uint64
}

// Profile is a kernel's sensitivity profile.
type Profile struct {
	Name    string
	Records []Record // address-sorted
	byAddr  map[uint64]int

	// base is the collection run's baseline; nil on a profile that was
	// Read (the text format does not carry it).
	base *baseline
}

// baseline is what the shadow pass observed of the unmodified program
// itself: the shadow rides beside the double values without changing
// them, so its outputs and execution counts are exactly those of an
// uninstrumented run of mod under maxSteps.
type baseline struct {
	mod      *prog.Module
	maxSteps uint64
	counts   map[uint64]uint64
	out      []vm.OutVal
}

// New builds a profile from VM shadow records.
func New(name string, recs []vm.ShadowRecord) *Profile {
	p := &Profile{Name: name}
	for _, r := range recs {
		p.Records = append(p.Records, Record{
			Addr:             r.Addr,
			Op:               r.Op.String(),
			Execs:            r.Execs,
			Samples:          r.Samples,
			MaxRelErr:        r.MaxRelErr,
			MeanRelErr:       r.MeanRelErr,
			MaxCancelBits:    r.MaxCancelBits,
			Divergences:      r.Divergences,
			LocalMaxErr:      r.LocalMaxErr,
			LocalDivergences: r.LocalDivergences,
		})
	}
	p.index()
	return p
}

func (p *Profile) index() {
	sort.Slice(p.Records, func(i, j int) bool { return p.Records[i].Addr < p.Records[j].Addr })
	p.byAddr = make(map[uint64]int, len(p.Records))
	for i := range p.Records {
		p.byAddr[p.Records[i].Addr] = i
	}
}

// Collect performs the shadow pass: one run of the unmodified module
// with the shadow enabled. The profile keeps the run's outputs and
// execution counts (see Baseline), so the pass doubles as the search's
// profiling run.
func Collect(name string, mod *prog.Module, maxSteps uint64) (*Profile, error) {
	lp, err := vm.Link(mod)
	if err != nil {
		return nil, err
	}
	m := lp.NewMachine()
	m.MaxSteps = maxSteps
	m.EnableShadow()
	if err := m.Run(); err != nil {
		return nil, fmt.Errorf("shadow: collection run: %w", err)
	}
	p := New(name, m.ShadowRecords())
	p.base = &baseline{mod: mod, maxSteps: maxSteps, counts: m.Profile(), out: m.Out}
	return p, nil
}

// Baseline returns the per-address execution counts and the outputs of
// the collection run, when the profile was collected from mod under
// maxSteps (ok is false otherwise, and on a nil or Read profile). Both
// are shared with every caller and must not be modified.
func (p *Profile) Baseline(mod *prog.Module, maxSteps uint64) (counts map[uint64]uint64, out []vm.OutVal, ok bool) {
	if p == nil || p.base == nil || p.base.mod != mod || p.base.maxSteps != maxSteps {
		return nil, nil, false
	}
	return p.base.counts, p.base.out, true
}

// At returns the record for an instruction address.
func (p *Profile) At(addr uint64) (Record, bool) {
	if i, ok := p.byAddr[addr]; ok {
		return p.Records[i], true
	}
	return Record{}, false
}

// Err returns the instruction's max relative error (0 when unsampled —
// an instruction the shadow never saw predicts as safe, exactly like an
// unexecuted one).
func (p *Profile) Err(addr uint64) float64 {
	if i, ok := p.byAddr[addr]; ok {
		return p.Records[i].MaxRelErr
	}
	return 0
}

// AggErr returns the aggregated predicted error of a piece: the max over
// its instruction addresses. Max (not sum) because the shadow is carried
// globally, so each instruction's error already includes upstream drift.
func (p *Profile) AggErr(addrs []uint64) float64 {
	var e float64
	for _, a := range addrs {
		if v := p.Err(a); v > e {
			e = v
		}
	}
	return e
}

// AggLocalErr returns the max local (intrinsic, drift-free) error over a
// piece's instruction addresses — the prediction-gate signal.
func (p *Profile) AggLocalErr(addrs []uint64) float64 {
	var e float64
	for _, a := range addrs {
		if i, ok := p.byAddr[a]; ok {
			if v := p.Records[i].LocalMaxErr; v > e {
				e = v
			}
		}
	}
	return e
}

// Ranked returns records most-sensitive first: descending max relative
// error, then divergences, then cancellation, then address (ascending)
// for a stable order.
func (p *Profile) Ranked() []Record {
	recs := make([]Record, len(p.Records))
	copy(recs, p.Records)
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.MaxRelErr != b.MaxRelErr {
			return a.MaxRelErr > b.MaxRelErr
		}
		if a.Divergences != b.Divergences {
			return a.Divergences > b.Divergences
		}
		if a.MaxCancelBits != b.MaxCancelBits {
			return a.MaxCancelBits > b.MaxCancelBits
		}
		return a.Addr < b.Addr
	})
	return recs
}

// AnnotateConfig records each sampled instruction's sensitivity on the
// configuration tree as a classification note ("shadow err=… local=…"),
// which survives the exchange format as a trailing comment. Nodes that
// already carry a note (the dataflow classifications) are left alone.
// Returns the number of nodes annotated.
func AnnotateConfig(p *Profile, c *config.Config) int {
	n := 0
	for _, r := range p.Records {
		node := c.NodeAt(r.Addr)
		if node == nil || node.Note != "" {
			continue
		}
		note := fmt.Sprintf("shadow err=%.3g local=%.3g", r.MaxRelErr, r.LocalMaxErr)
		if r.MaxCancelBits > 0 {
			note += fmt.Sprintf(" cancel=%d", r.MaxCancelBits)
		}
		if r.Divergences > 0 {
			note += fmt.Sprintf(" div=%d", r.Divergences)
		}
		node.Note = note
		n++
	}
	return n
}

// NodeSummary is the error-flow attribution of one piece-tree node.
type NodeSummary struct {
	Kind  config.Kind
	ID    int
	Name  string
	Addr  uint64
	Depth int

	Insns   int     // sampled instructions beneath the node
	Execs   uint64  // their total executions
	MaxErr  float64 // worst instruction error beneath
	ErrMass float64 // Σ mean error × executions: where error flows

	MaxCancelBits uint8
	Divergences   uint64
}

// Attribute aggregates the profile up the configuration piece tree
// (module → function → block → instruction), returning one summary per
// node in preorder. Leaf instructions with no samples are omitted.
func Attribute(p *Profile, c *config.Config) []NodeSummary {
	var out []NodeSummary
	var walk func(n *config.Node, depth int) (NodeSummary, bool)
	walk = func(n *config.Node, depth int) (NodeSummary, bool) {
		s := NodeSummary{Kind: n.Kind, ID: n.ID, Name: n.Name, Addr: n.Addr, Depth: depth}
		if n.Kind == config.KindInsn {
			r, ok := p.At(n.Addr)
			if !ok || (r.Samples == 0 && r.Divergences == 0) {
				return s, false
			}
			s.Insns = 1
			s.Execs = r.Execs
			s.MaxErr = r.MaxRelErr
			s.ErrMass = r.MeanRelErr * float64(r.Execs)
			s.MaxCancelBits = r.MaxCancelBits
			s.Divergences = r.Divergences
			out = append(out, s)
			return s, true
		}
		at := len(out)
		out = append(out, s) // placeholder; filled after children
		any := false
		for _, ch := range n.Children {
			cs, ok := walk(ch, depth+1)
			if !ok {
				continue
			}
			any = true
			s.Insns += cs.Insns
			s.Execs += cs.Execs
			s.ErrMass += cs.ErrMass
			if cs.MaxErr > s.MaxErr {
				s.MaxErr = cs.MaxErr
			}
			if cs.MaxCancelBits > s.MaxCancelBits {
				s.MaxCancelBits = cs.MaxCancelBits
			}
			s.Divergences += cs.Divergences
		}
		if !any {
			out = append(out[:at], out[at+1:]...)
			return s, false
		}
		out[at] = s
		return s, true
	}
	walk(c.Root, 0)
	return out
}
