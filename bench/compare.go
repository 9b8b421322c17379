package main

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// compareSets prints, per workload and metric, each set's median and
// quartiles, the relative change of the median from set a to set b and
// a verdict. End-to-end metrics come from untraced runs, per-layer
// metrics from traced runs.
func compareSets(out io.Writer, pathA, pathB string) error {
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	va, vb := a.values(), b.values()
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta median [q1 q3]\tb median [q1 q3]\tdelta\tverdict")
	for _, w := range workloads {
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			xa, xb := va[w.name][d.Name], vb[w.name][d.Name]
			if len(xa) == 0 || len(xb) == 0 || allZero(xa) && allZero(xb) {
				continue // not measured, or a layer the workload does not reach
			}
			delta, v := verdict(d, xa, xb)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%s\n", w.name, d.Name, d.Unit, summary(xa), summary(xb), 100*delta, v)
		}
	}
	return tw.Flush()
}

// values groups a set's metric values by workload and metric name.
func (s *set) values() map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for _, r := range s.Runs {
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v)
		}
	}
	return out
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g %.4g]", median(xs), q1, q3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, math.Abs(median(xs)))
}

// verdict judges set b against baseline a (choosing-metrics §6–§8):
//
//   - unresolved: a run-to-run spread is wider than the metric's bound,
//     unless every run of b is better than every run of a;
//   - worse: b's median is worse by more than the bound;
//   - better: b's median is better by more than a's own spread, and a
//     run of b beats a run of a in at least nine of ten pairings (the
//     sets are not paired, so every run of b meets every run of a);
//   - same otherwise.
//
// Per-layer metrics have no bound; the wider of the two spreads stands
// in for it. A single run per set has no spread to judge by, so any
// change there is unresolved.
func verdict(d metricDef, a, b []float64) (delta float64, v string) {
	ma, mb := median(a), median(b)
	delta = ratio(mb-ma, math.Abs(ma))
	if delta != 0 && (len(a) < 2 || len(b) < 2) {
		return delta, "unresolved"
	}
	worse := delta
	if d.Better == "higher" {
		worse = -delta
	}
	bound := d.Bound
	wide := max(spread(a), spread(b))
	if bound == 0 {
		bound = wide
	}
	switch {
	case wide > bound:
		if winShare(d, a, b) == 1 {
			return delta, "better"
		}
		return delta, "unresolved"
	case worse > bound:
		return delta, "worse"
	case -worse > spread(a) && winShare(d, a, b) >= 0.9:
		return delta, "better"
	}
	return delta, "same"
}

func allZero(xs []float64) bool {
	for _, x := range xs {
		if x != 0 {
			return false
		}
	}
	return true
}

// winShare is the share of pairings of a value of a with a value of b
// in which b's value is the better one; ties count for neither.
func winShare(d metricDef, a, b []float64) float64 {
	var wins int
	for _, x := range a {
		for _, y := range b {
			if (d.Better == "lower" && y < x) || (d.Better == "higher" && y > x) {
				wins++
			}
		}
	}
	return ratio(float64(wins), float64(len(a)*len(b)))
}
