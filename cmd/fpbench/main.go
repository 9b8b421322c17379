// Command fpbench regenerates the paper's evaluation tables and figures
// on the fpmix substrate.
//
// Usage:
//
//	fpbench -exp all                 # every experiment
//	fpbench -exp fig10 -classes W,A  # the search table at chosen classes
//	fpbench -exp fig11 -class W      # the SuperLU threshold sweep
//	fpbench -exp sens -workers 1     # the sensitivity-guided search ablation
//	fpbench -exp engine -class W     # compiled vs interpreted engine ablation
//	fpbench -exp remote -class W     # remote fleet vs one-unit-per-RPC throughput
//
// Besides the human-readable tables, -json writes the raw experiment
// rows as JSON and -benchstat writes Go testing.B-style lines
// (benchstat-compatible: "Benchmark<exp>/<case> 1 <value> <unit> ...")
// so the perf trajectory can be diffed across revisions with standard
// tooling. Either flag accepts "-" for stdout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

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
	Engine   []experiments.EngineRow   `json:"engine,omitempty"`
	Bounds   []experiments.BoundsRow   `json:"bounds,omitempty"`
	Remote   []experiments.RemoteRow   `json:"remote,omitempty"`
	// RemoteSweep is the wall-weighted aggregate of the Remote rows: the
	// sweep-wide throughput ratio of the batched fleet protocol over the
	// one-unit-per-RPC baseline.
	RemoteSweep *experiments.RemoteSweep `json:"remote_sweep,omitempty"`
}

func main() {
	exp := flag.String("exp", "all", "experiment: fig8, fig9, fig10, fig11, amg, bitexact, sens, engine, bounds, remote, all")
	benches := flag.String("benches", "", "comma-separated kernel subset for -exp remote (default: all searchable kernels)")
	class := flag.String("class", "W", "input class for single-class experiments (W, A, C)")
	classes := flag.String("classes", "W,A", "comma-separated classes for fig10")
	workers := flag.Int("workers", runtime.NumCPU(), "parallel search evaluations")
	jsonOut := flag.String("json", "", "write raw experiment rows as JSON to this file (- for stdout)")
	statOut := flag.String("benchstat", "", "write benchstat-compatible lines to this file (- for stdout)")
	flag.Parse()

	cl := kernels.Class(*class)
	var cls []kernels.Class
	for _, c := range strings.Split(*classes, ",") {
		cls = append(cls, kernels.Class(strings.TrimSpace(c)))
	}

	var res results
	var stats []string
	var known []string
	matched := false

	run := func(name string, f func() error) {
		known = append(known, name)
		if *exp != "all" && *exp != name {
			return
		}
		matched = true
		start := time.Now()
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "fpbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		stats = append(stats, fmt.Sprintf("Benchmark%s 1 %d ns/op", camel(name), time.Since(start).Nanoseconds()))
		report.Rule(os.Stdout)
	}

	run("fig8", func() error {
		rows, err := experiments.Fig8(kernels.ClassA)
		if err != nil {
			return err
		}
		res.Fig8 = rows
		for _, r := range rows {
			for i, ov := range r.Overhead {
				stats = append(stats, fmt.Sprintf("BenchmarkFig8/%s/%dranks 1 %.3f overheadX",
					r.Bench, experiments.Fig8Ranks[i], ov))
			}
		}
		report.Fig8(os.Stdout, rows)
		return nil
	})
	run("fig9", func() error {
		rows, err := experiments.Fig9([]kernels.Class{kernels.ClassA, kernels.ClassC})
		if err != nil {
			return err
		}
		res.Fig9 = rows
		for _, r := range rows {
			stats = append(stats, fmt.Sprintf("BenchmarkFig9/%s.%s 1 %.3f overheadX", r.Bench, r.Class, r.Overhead))
		}
		report.Fig9(os.Stdout, rows)
		return nil
	})
	run("fig10", func() error {
		rows, err := experiments.Fig10(experiments.Fig10Benches, cls, *workers)
		if err != nil {
			return err
		}
		res.Fig10 = rows
		for _, r := range rows {
			stats = append(stats, fmt.Sprintf("BenchmarkFig10/%s.%s 1 %d testedCfgs %.1f staticPct %.1f dynamicPct",
				r.Bench, r.Class, r.Tested, r.StaticPct, r.DynamicPct))
		}
		report.Fig10(os.Stdout, rows)
		return nil
	})
	run("fig11", func() error {
		rows, err := experiments.Fig11(cl, *workers)
		if err != nil {
			return err
		}
		res.Fig11 = rows
		for _, r := range rows {
			stats = append(stats, fmt.Sprintf("BenchmarkFig11/%.0e 1 %.1f staticPct %.1f dynamicPct",
				r.Threshold, r.StaticPct, r.DynamicPct))
		}
		report.Fig11(os.Stdout, rows)
		return nil
	})
	run("amg", func() error {
		r, err := experiments.AMG(cl, *workers)
		if err != nil {
			return err
		}
		res.AMG = r
		stats = append(stats,
			fmt.Sprintf("BenchmarkAMG 1 %.3f speedupX %.3f overheadX", r.ManualSpeedup, r.AnalysisOverhead))
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
		for _, r := range rows {
			stats = append(stats, fmt.Sprintf("BenchmarkSens/%s.%s 1 %d testedCfgs %d baseCfgs %d predicted",
				r.Bench, r.Class, r.TestedSens, r.TestedBase, r.Predicted))
		}
		report.Sens(os.Stdout, rows)
		return nil
	})
	run("engine", func() error {
		rows, err := experiments.Engine(experiments.Fig10Benches, cl, *workers)
		if err != nil {
			return err
		}
		res.Engine = rows
		for _, r := range rows {
			// One line per backend so `benchstat compiled.txt interp.txt`
			// and cross-revision diffs both work.
			stats = append(stats,
				fmt.Sprintf("BenchmarkEngine/%s.%s/compiled 1 %d ns/op %d testedCfgs",
					r.Bench, r.Class, r.CompiledNS, r.Tested),
				fmt.Sprintf("BenchmarkEngine/%s.%s/nocompile 1 %d ns/op %d testedCfgs",
					r.Bench, r.Class, r.InterpNS, r.Tested))
		}
		report.Engine(os.Stdout, rows)
		return nil
	})
	run("remote", func() error {
		names := experiments.Fig10Benches
		if *benches != "" {
			names = nil
			for _, b := range strings.Split(*benches, ",") {
				names = append(names, strings.TrimSpace(b))
			}
		}
		rows, err := experiments.Remote(names, cl, *workers)
		if err != nil {
			return err
		}
		res.Remote = rows
		if len(rows) > 1 {
			sw := experiments.SweepOf(rows)
			res.RemoteSweep = &sw
			stats = append(stats,
				fmt.Sprintf("BenchmarkRemote/sweep.%s/one 1 %d ns/op", cl, sw.OneNS),
				fmt.Sprintf("BenchmarkRemote/sweep.%s/fleet 1 %d ns/op %d units",
					cl, sw.FleetNS, sw.Units))
		}
		for _, r := range rows {
			// One line per configuration so benchstat can diff the batched
			// fleet against the one-unit protocol and either against prior
			// revisions.
			stats = append(stats,
				fmt.Sprintf("BenchmarkRemote/%s.%s/serial 1 %d ns/op",
					r.Bench, r.Class, r.SerialNS),
				fmt.Sprintf("BenchmarkRemote/%s.%s/one 1 %d ns/op",
					r.Bench, r.Class, r.OneNS),
				fmt.Sprintf("BenchmarkRemote/%s.%s/fleet 1 %d ns/op %d units",
					r.Bench, r.Class, r.FleetNS, r.Units))
		}
		report.Remote(os.Stdout, rows)
		return nil
	})
	run("bounds", func() error {
		rows, err := experiments.Bounds(experiments.Fig10Benches, cl, *workers)
		if err != nil {
			return err
		}
		res.Bounds = rows
		for _, r := range rows {
			// One line per mode so benchstat can diff proving against
			// -noprove and either against prior revisions.
			stats = append(stats,
				fmt.Sprintf("BenchmarkBounds/%s.%s/noprove 1 %d ns/op %d testedCfgs",
					r.Bench, r.Class, r.NoProveNS, r.TestedNoProve),
				fmt.Sprintf("BenchmarkBounds/%s.%s/prove 1 %d ns/op %d testedCfgs %d provedCfgs",
					r.Bench, r.Class, r.ProveNS, r.TestedProve, r.Proved))
		}
		report.Bounds(os.Stdout, rows)
		return nil
	})

	if *exp != "all" && !matched {
		fmt.Fprintf(os.Stderr, "fpbench: unknown experiment %q\navailable experiments: %s, all\n",
			*exp, strings.Join(known, ", "))
		os.Exit(2)
	}

	if *jsonOut != "" {
		emit(*jsonOut, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(&res)
		})
	}
	if *statOut != "" {
		emit(*statOut, func(w io.Writer) error {
			for _, s := range stats {
				if _, err := fmt.Fprintln(w, s); err != nil {
					return err
				}
			}
			return nil
		})
	}
}

// emit writes to a file or, for "-", stdout.
func emit(path string, f func(io.Writer) error) {
	w := io.Writer(os.Stdout)
	if path != "-" {
		file, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fpbench:", err)
			os.Exit(1)
		}
		defer file.Close()
		w = file
	}
	if err := f(w); err != nil {
		fmt.Fprintln(os.Stderr, "fpbench:", err)
		os.Exit(1)
	}
}

// camel maps an experiment name to its Benchmark suffix (fig10 → Fig10).
func camel(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}
