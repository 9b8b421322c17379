// Command bench is fpmixbench, fpmix's end-to-end and per-layer
// benchmark. One invocation runs one workload in its own process and
// prints every metric as "name value unit", then one JSON result line:
//
//	go run . -workload search-eval -seed 1 [-seconds 10] [-trace 0|1] [-json set.json] [-spans spans.json]
//	go run . -compare a.json b.json
//	go run . -regen-golden
//
// Every job's final configuration and statistics are checked against
// the committed golden references; the command exits 1 if any job
// failed. README.md lists the workloads, the metrics and which
// end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"
	"strconv"
	"time"
)

func main() {
	wl := flag.String("workload", "", "workload to run: search-eval, search-analysis, service-cold or service-warm")
	seed := flag.Int64("seed", 1, "permutes the kernel order of every round and seeds the network injector")
	seconds := flag.Float64("seconds", 10, "how long the timed rounds run, at least (every run has at least 50 jobs)")
	trace := flag.Int("trace", 0, "1 runs the traced variant, which reports the per-layer metrics")
	spans := flag.String("spans", "", "write the traced run's spans to this file as Chrome trace-event JSON (implies -trace 1)")
	jsonOut := flag.String("json", "", "append this run's result to this set file")
	workdir := flag.String("workdir", "../.bench_build/work", "scratch directory for daemon stores")
	regen := flag.Bool("regen-golden", false, "rewrite golden/ from the seed evaluator")
	compare := flag.Bool("compare", false, "compare the two set files given as arguments")
	flag.Parse()

	var err error
	switch {
	case *regen:
		err = regenGolden("golden")
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare takes two set files")
			break
		}
		err = compareSets(os.Stdout, flag.Arg(0), flag.Arg(1))
	default:
		err = runMain(*wl, *seed, *seconds, *trace == 1 || *spans != "", *jsonOut, *spans, *workdir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpmixbench:", err)
		os.Exit(1)
	}
}

func runMain(name string, seed int64, seconds float64, traced bool, jsonOut, spansOut, workdir string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	// Each run gets its own scratch directory, removed at exit.
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workdir, name+"-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	res, err := run(runConfig{
		workload: w, seed: seed, seconds: seconds, traced: traced,
		setups: 3, setupFor: time.Second, minJobs: 50, workdir: dir,
	})
	if err != nil {
		return err
	}
	if spansOut != "" {
		if err := writeChrome(spansOut, res.spans); err != nil {
			return err
		}
	}
	if jsonOut != "" {
		if err := appendSet(jsonOut, res); err != nil {
			return err
		}
	}
	if err := printResult(os.Stdout, res, traced); err != nil {
		return err
	}
	if res.Failed > 0 {
		return fmt.Errorf("%d of %d jobs failed", res.Failed, res.Attempted)
	}
	return nil
}

// printResult writes one "name value unit" line per metric of the run's
// kind (end-to-end, or per-layer when traced), the host's steal and the
// walls as measured, the per-kernel layer split of a traced run, and
// last the one-line JSON result.
func printResult(out io.Writer, res *result, traced bool) error {
	defs, vals := endToEnd, res.endToEnd
	if traced {
		defs, vals = perLayer, res.layers
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		fmt.Fprintf(out, "%s %s %s\n", d.Name, strconv.FormatFloat(vals[d.Name], 'g', -1, 64), d.Unit)
		metrics[d.Name] = metric{vals[d.Name], d.Unit}
	}
	fmt.Fprint(out, "host")
	for _, k := range sortedKeys(res.Host) {
		fmt.Fprintf(out, " %s=%.4g", k, res.Host[k])
	}
	fmt.Fprintln(out)
	for _, k := range sortedKeys(res.Split) {
		fmt.Fprintf(out, "split %s", k)
		for _, f := range splitFields {
			if v, ok := res.Split[k][f]; ok {
				fmt.Fprintf(out, " %s=%.2f", f, v)
			}
		}
		fmt.Fprintln(out)
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// splitFields orders the per-kernel split: job wall, then where it goes
// (in-process: shadow, runner build, the search's own time and unit
// evaluation; service: queue, daemon run and client tail).
var splitFields = []string{
	"job_ms", "shadow_ms", "runner_build_ms", "search_self_ms", "queue_ms", "run_ms", "client_tail_ms",
	"unit_sum_ms", "first_unit_ms", "verify_ms",
}

// set is a file of runs (-json appends to it; -compare reads two).
type set struct {
	Runs []*result `json:"runs"`
}

func readSet(path string) (*set, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s set
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func appendSet(path string, res *result) error {
	s, err := readSet(path)
	if errors.Is(err, fs.ErrNotExist) {
		s, err = &set{}, nil
	}
	if err != nil {
		return err
	}
	s.Runs = append(s.Runs, res)
	data, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
