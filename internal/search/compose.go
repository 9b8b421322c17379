package search

import (
	"sort"

	"fpmix/internal/config"
	"fpmix/internal/replace"
)

// The paper observes that the union of individually-passing replacements
// may fail verification because precision decisions are not independent,
// and suggests "a second search phase ... to determine the largest subset
// of individually-passing instruction replacements that may be composed
// to create a passing final configuration" (§3.1). Compose implements
// that phase as a greedy backoff: passing pieces are dropped from the
// union in ascending profile-weight order (sacrificing the least dynamic
// replacement benefit first) until the composition verifies.

// ComposeResult describes the outcome of the second search phase.
type ComposeResult struct {
	// Config is the passing composed configuration (nil if even the empty
	// replacement set failed, which indicates a broken verifier).
	Config *config.Config
	// Pass reports whether a passing composition was found.
	Pass bool
	// Dropped lists the pieces removed from the union, in drop order.
	Dropped []*Piece
	// Tested is the number of additional configurations evaluated.
	Tested int
	// Stats describes the composed configuration.
	Stats replace.Stats
}

// Compose runs the second search phase on a completed Result. If the
// final union already passed it returns immediately with zero additional
// evaluations.
func Compose(t Target, res *Result) (*ComposeResult, error) {
	base := res.Final
	if res.FinalPass {
		return &ComposeResult{Config: base, Pass: true, Stats: res.Stats}, nil
	}
	// Ascending weight: drop the pieces whose loss costs the least dynamic
	// replacement first.
	pieces := append([]*Piece(nil), res.Passing...)
	sort.Slice(pieces, func(i, j int) bool {
		if pieces[i].Weight != pieces[j].Weight {
			return pieces[i].Weight < pieces[j].Weight
		}
		return pieces[i].Addrs[0] < pieces[j].Addrs[0]
	})

	ev, err := newEngine(t, false)
	if err != nil {
		return nil, err
	}

	cr := &ComposeResult{}
	cfg := base.Clone()
	for _, p := range pieces {
		// Remove this piece from the composition.
		for _, addr := range p.Addrs {
			if n := cfg.NodeAt(addr); n != nil && n.Flag == config.Single {
				n.Flag = config.Unset
			}
		}
		cr.Dropped = append(cr.Dropped, p)
		eff := cfg.Effective()
		out, err := ev.evaluate(evalRequest{eff: eff})
		if err != nil {
			return nil, err
		}
		cr.Tested++
		if out.pass {
			cr.Config = cfg
			cr.Pass = true
			cr.Stats = replace.ComputeStats(t.Module, eff, res.Profile)
			return cr, nil
		}
	}
	return cr, nil
}
