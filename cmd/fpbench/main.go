// Command fpbench regenerates the paper's evaluation tables and figures
// on the fpmix substrate, plus the sensitivity and error-bound search
// ablations.
//
// Usage:
//
//	fpbench -exp all                 # every experiment
//	fpbench -exp fig10 -classes W,A  # the search table at chosen classes
//	fpbench -exp fig11 -class W      # the SuperLU threshold sweep
//	fpbench -exp sens -workers 1     # the sensitivity-guided search ablation
//	fpbench -exp bounds -class W     # the error-bound prover ablation
//
// Besides the human-readable tables, -json writes the raw experiment
// rows as JSON ("-" for stdout). Performance is measured by the
// benchmark harness under bench/, not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"fpmix/internal/experiments"
	"fpmix/internal/kernels"
	"fpmix/internal/report"
)

// results aggregates the raw rows of every experiment that ran, for the
// -json output.
type results struct {
	Fig8     []experiments.Fig8Row     `json:"fig8,omitempty"`
	Fig9     []experiments.Fig9Row     `json:"fig9,omitempty"`
	Fig10    []experiments.Fig10Row    `json:"fig10,omitempty"`
	Fig11    []experiments.Fig11Row    `json:"fig11,omitempty"`
	AMG      *experiments.AMGResult    `json:"amg,omitempty"`
	BitExact []experiments.BitExactRow `json:"bitexact,omitempty"`
	Sens     []experiments.SensRow     `json:"sens,omitempty"`
	Bounds   []experiments.BoundsRow   `json:"bounds,omitempty"`
}

func main() {
	exp := flag.String("exp", "all", "experiment: fig8, fig9, fig10, fig11, amg, bitexact, sens, bounds, all")
	class := flag.String("class", "W", "input class for single-class experiments (W, A, C)")
	classes := flag.String("classes", "W,A", "comma-separated classes for fig10")
	workers := flag.Int("workers", runtime.NumCPU(), "parallel search evaluations")
	jsonOut := flag.String("json", "", "write raw experiment rows as JSON to this file (- for stdout)")
	flag.Parse()

	cl := kernels.Class(*class)
	var cls []kernels.Class
	for _, c := range strings.Split(*classes, ",") {
		cls = append(cls, kernels.Class(strings.TrimSpace(c)))
	}

	var res results
	var known []string
	matched := false

	run := func(name string, f func() error) {
		known = append(known, name)
		if *exp != "all" && *exp != name {
			return
		}
		matched = true
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "fpbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		report.Rule(os.Stdout)
	}

	run("fig8", func() error {
		rows, err := experiments.Fig8(kernels.ClassA)
		if err != nil {
			return err
		}
		res.Fig8 = rows
		report.Fig8(os.Stdout, rows)
		return nil
	})
	run("fig9", func() error {
		rows, err := experiments.Fig9([]kernels.Class{kernels.ClassA, kernels.ClassC})
		if err != nil {
			return err
		}
		res.Fig9 = rows
		report.Fig9(os.Stdout, rows)
		return nil
	})
	run("fig10", func() error {
		rows, err := experiments.Fig10(experiments.Fig10Benches, cls, *workers)
		if err != nil {
			return err
		}
		res.Fig10 = rows
		report.Fig10(os.Stdout, rows)
		return nil
	})
	run("fig11", func() error {
		rows, err := experiments.Fig11(cl, *workers)
		if err != nil {
			return err
		}
		res.Fig11 = rows
		report.Fig11(os.Stdout, rows)
		return nil
	})
	run("amg", func() error {
		r, err := experiments.AMG(cl, *workers)
		if err != nil {
			return err
		}
		res.AMG = r
		report.AMG(os.Stdout, r)
		return nil
	})
	run("bitexact", func() error {
		rows, err := experiments.BitExact(cl)
		if err != nil {
			return err
		}
		res.BitExact = rows
		report.BitExact(os.Stdout, rows)
		return nil
	})
	run("sens", func() error {
		rows, err := experiments.Sens(experiments.Fig10Benches, cl, *workers)
		if err != nil {
			return err
		}
		res.Sens = rows
		report.Sens(os.Stdout, rows)
		return nil
	})
	run("bounds", func() error {
		rows, err := experiments.Bounds(experiments.Fig10Benches, cl, *workers)
		if err != nil {
			return err
		}
		res.Bounds = rows
		report.Bounds(os.Stdout, rows)
		return nil
	})

	if *exp != "all" && !matched {
		fmt.Fprintf(os.Stderr, "fpbench: unknown experiment %q\navailable experiments: %s, all\n",
			*exp, strings.Join(known, ", "))
		os.Exit(2)
	}

	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, &res); err != nil {
			fmt.Fprintln(os.Stderr, "fpbench:", err)
			os.Exit(1)
		}
	}
}

// writeJSON encodes v, indented, to a file or, for "-", stdout. A
// failed close counts as a failed write: it can be the first report of
// a short write to disk.
func writeJSON(path string, v any) error {
	enc := func(f *os.File) error {
		e := json.NewEncoder(f)
		e.SetIndent("", "  ")
		return e.Encode(v)
	}
	if path == "-" {
		return enc(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := enc(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
