package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the program must agree
// with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestTablesMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if strings.Join(names, ",") != strings.Join(ours, ",") {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", names, ours)
	}
	for _, c := range []struct {
		name       string
		json, prog []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.json) != len(c.prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", c.name, len(c.json), len(c.prog))
			continue
		}
		for i := range c.json {
			if c.json[i] != c.prog[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", c.name, i, c.json[i], c.prog[i])
			}
		}
	}
}

// TestSmoke runs every workload for one untraced and one traced round
// on ep and ft, checks that no job failed, and that the printed metric
// names and units are exactly BENCHMARK.json's.
func TestSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			res, err := run(runConfig{
				workload: w, seed: 1, traced: true, setups: 1, rounds: 2,
				kernels: []string{"ep", "ft"}, workdir: t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.endToEnd["ok_frac"] != 1 {
				t.Fatalf("%d of %d jobs failed", res.Failed, res.Attempted)
			}
			for _, c := range []struct {
				traced bool
				want   []metricDef
			}{{false, b.EndToEnd}, {true, b.PerLayer}} {
				var buf bytes.Buffer
				if err := printResult(&buf, res, c.traced); err != nil {
					t.Fatal(err)
				}
				printed, last := parseOutput(t, buf.String())
				want := make(map[string]string)
				for _, m := range c.want {
					want[m.Name] = m.Unit
				}
				if !sameUnits(printed, want) {
					t.Errorf("trace=%v: printed %v, BENCHMARK.json %v", c.traced, printed, want)
				}
				if !sameUnits(last, want) {
					t.Errorf("trace=%v: result line %v, BENCHMARK.json %v", c.traced, last, want)
				}
			}
		})
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(xs, n=4),
// the definition the run-to-run spread check uses.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{0.9, 1.3, 1.0, 1.1, 1.2}, 0.95, 1.25},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestVerdict checks each verdict of -compare on a lower-is-better
// metric with a 10% bound.
func TestVerdict(t *testing.T) {
	d := metricDef{Name: "round_s", Unit: "s", Better: "lower", Bound: 0.10}
	base := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name string
		b    []float64
		want string
	}{
		{"same", scale(1.01), "same"},
		{"worse", scale(1.20), "worse"},
		{"better", scale(0.90), "better"},
		{"unresolved", []float64{0.5, 1.5, 0.7, 1.3, 0.9, 1.1, 0.6, 1.4, 1.0, 1.0}, "unresolved"},
	} {
		if _, got := verdict(d, base, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// parseOutput returns the "name value unit" lines and the final JSON
// result line's metrics, each as name → unit.
func parseOutput(t *testing.T, out string) (printed, last map[string]string) {
	t.Helper()
	printed = make(map[string]string)
	var lines []string
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	for _, l := range lines[:len(lines)-1] {
		if f := strings.Fields(l); f[0] != "split" && f[0] != "host" {
			if len(f) != 3 {
				t.Fatalf("malformed metric line %q", l)
			}
			printed[f[0]] = f[2]
		}
	}
	var res struct {
		Correct   *bool `json:"correct"`
		Attempted int   `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v", err)
	}
	if res.Correct == nil || res.Failed == nil || res.Attempted < 1 {
		t.Fatalf("result line lacks correct/attempted/failed: %s", lines[len(lines)-1])
	}
	last = make(map[string]string)
	for name, m := range res.Metrics {
		if m.Value == nil {
			t.Errorf("metric %s has no value", name)
		}
		last[name] = m.Unit
	}
	return printed, last
}

func sameUnits(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
