// Package report renders experiment results as the text tables the paper
// presents.
package report

import (
	"fmt"
	"io"
	"strings"

	"fpmix/internal/experiments"
)

// Fig8 renders the MPI scaling series.
func Fig8(w io.Writer, rows []experiments.Fig8Row) {
	fmt.Fprintln(w, "Figure 8: NAS MPI scaling — all-double instrumentation overhead (X) vs ranks")
	fmt.Fprintf(w, "%-8s", "bench")
	for _, r := range experiments.Fig8Ranks {
		fmt.Fprintf(w, "%8d", r)
	}
	fmt.Fprintln(w)
	for _, row := range rows {
		fmt.Fprintf(w, "%-8s", row.Bench)
		for _, ov := range row.Overhead {
			fmt.Fprintf(w, "%7.1fX", ov)
		}
		fmt.Fprintln(w)
	}
}

// Fig9 renders the per-class overhead table.
func Fig9(w io.Writer, rows []experiments.Fig9Row) {
	fmt.Fprintln(w, "Figure 9: benchmark overhead (8 ranks, all-double snippets)")
	fmt.Fprintf(w, "%-12s %s\n", "Benchmark", "Overhead")
	for _, row := range rows {
		fmt.Fprintf(w, "%-12s %7.1fX\n", row.Bench+"."+string(row.Class), row.Overhead)
	}
}

// Fig10 renders the search-results table.
func Fig10(w io.Writer, rows []experiments.Fig10Row) {
	fmt.Fprintln(w, "Figure 10: NAS benchmark search results")
	fmt.Fprintf(w, "%-10s %10s %10s %9s %9s %8s\n",
		"Benchmark", "Candidates", "Tested", "Static", "Dynamic", "Final")
	for _, row := range rows {
		verdict := "fail"
		if row.FinalPass {
			verdict = "pass"
		}
		fmt.Fprintf(w, "%-10s %10d %10d %8.1f%% %8.1f%% %8s\n",
			row.Bench+"."+string(row.Class), row.Candidates, row.Tested,
			row.StaticPct, row.DynamicPct, verdict)
	}
}

// Fig11 renders the SuperLU threshold sweep.
func Fig11(w io.Writer, rows []experiments.Fig11Row) {
	fmt.Fprintln(w, "Figure 11: SuperLU-style solver threshold sweep (memplus-like matrix)")
	fmt.Fprintf(w, "%-10s %9s %9s %12s %6s\n", "Threshold", "Static", "Dynamic", "Final Error", "Final")
	for _, row := range rows {
		verdict := "fail"
		if row.FinalPass {
			verdict = "pass"
		}
		fmt.Fprintf(w, "%-10.1e %8.1f%% %8.1f%% %12.2e %6s\n",
			row.Threshold, row.StaticPct, row.DynamicPct, row.FinalError, verdict)
	}
}

// AMG renders the §3.2 experiment.
func AMG(w io.Writer, r *experiments.AMGResult) {
	fmt.Fprintln(w, "AMG microkernel (paper §3.2)")
	fmt.Fprintf(w, "  whole kernel verified in single precision: %v\n", r.AllSinglePass)
	fmt.Fprintf(w, "  search static replacement:                 %.1f%% (final pass: %v)\n",
		r.SearchStaticPct, r.SearchFinalPass)
	fmt.Fprintf(w, "  analysis overhead (all-single snippets):   %.2fX\n", r.AnalysisOverhead)
	fmt.Fprintf(w, "  manual conversion speedup:                 %.2fX\n", r.ManualSpeedup)
}

// BitExact renders the §3.1 equivalence check.
func BitExact(w io.Writer, rows []experiments.BitExactRow) {
	fmt.Fprintln(w, "§3.1 bit-for-bit: instrumented all-single vs manual conversion")
	for _, row := range rows {
		status := "MISMATCH"
		if row.Match {
			status = "identical"
		}
		fmt.Fprintf(w, "  %-12s %3d outputs  %s\n", row.Bench+"."+string(row.Class), row.Outputs, status)
	}
}

// Sens renders the sensitivity-guided search ablation.
func Sens(w io.Writer, rows []experiments.SensRow) {
	fmt.Fprintln(w, "Sensitivity-guided search ablation (-nosens baseline vs shadow-guided)")
	fmt.Fprintf(w, "%-10s %12s %12s %10s %10s %6s %6s\n",
		"Benchmark", "Tested-base", "Tested-sens", "Predicted", "MaxErr", "Same", "Final")
	for _, row := range rows {
		same := "DIFF"
		if row.Identical {
			same = "yes"
		}
		verdict := "fail"
		if row.FinalPass {
			verdict = "pass"
		}
		fmt.Fprintf(w, "%-10s %12d %12d %10d %10.2g %6s %6s\n",
			row.Bench+"."+string(row.Class), row.TestedBase, row.TestedSens,
			row.Predicted, row.MaxErr, same, verdict)
	}
}

// Bounds prints the error-bound prover ablation table.
func Bounds(w io.Writer, rows []experiments.BoundsRow) {
	fmt.Fprintln(w, "Error-bound prover ablation (static proofs vs -noprove)")
	fmt.Fprintf(w, "%-10s %12s %12s %9s %10s %8s %7s %6s %6s\n",
		"Benchmark", "NoProve-ms", "Prove-ms", "Speedup", "TestedOff", "TestedOn", "Proved", "Same", "Final")
	for _, row := range rows {
		same := "DIFF"
		if row.Identical {
			same = "yes"
		}
		verdict := "fail"
		if row.FinalPass {
			verdict = "pass"
		}
		fmt.Fprintf(w, "%-10s %12.1f %12.1f %8.2fx %10d %8d %7d %6s %6s\n",
			row.Bench+"."+string(row.Class),
			float64(row.NoProveNS)/1e6, float64(row.ProveNS)/1e6,
			row.SpeedupX, row.TestedNoProve, row.TestedProve, row.Proved, same, verdict)
	}
}

// Rule prints a separator line.
func Rule(w io.Writer) {
	fmt.Fprintln(w, strings.Repeat("-", 72))
}
