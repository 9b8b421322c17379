package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"

	"fpmix/internal/config"
	"fpmix/internal/experiments"
	"fpmix/internal/kernels"
	"fpmix/internal/search"
	"fpmix/internal/shadow"
)

// The golden references are the finals of the seed evaluator: the
// from-scratch pipeline (search.EngineOff) on the per-step interpreter
// with the prover off. It shares no code with the fork engine, the
// compiled tier or the prover that the benchmarked searches use, so a
// fast path that composes a different final shows up as a failed job.

//go:embed golden
var goldenFS embed.FS

// goldenStats is one kernel's entry in golden/golden.json.
type goldenStats struct {
	FinalPass  bool    `json:"final_pass"`
	StaticPct  float64 `json:"static_pct"`
	DynamicPct float64 `json:"dynamic_pct"`
}

type golden struct {
	conf  map[string]string // "lu.W" → notes-stripped final configuration
	stats map[string]goldenStats
}

var notesRE = regexp.MustCompile(`(?m)[ \t]*;[^\n]*`)

// stripNotes drops the annotation column of the configuration exchange
// format, which records provenance and never affects precision.
func stripNotes(cfg string) string { return notesRE.ReplaceAllString(cfg, "") }

func jobName(kernel string) string { return kernel + "." + string(kernels.ClassW) }

func loadGolden() (*golden, error) {
	data, err := goldenFS.ReadFile("golden/golden.json")
	if err != nil {
		return nil, err
	}
	g := &golden{conf: make(map[string]string)}
	if err := json.Unmarshal(data, &g.stats); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	for name := range g.stats {
		c, err := goldenFS.ReadFile("golden/" + name + ".conf")
		if err != nil {
			return nil, err
		}
		g.conf[name] = string(c)
	}
	return g, nil
}

// check compares one job's outcome with the golden reference.
func (g *golden) check(kernel, final string, pass bool, staticPct, dynamicPct float64) error {
	name := jobName(kernel)
	want, ok := g.stats[name]
	switch {
	case !ok:
		return fmt.Errorf("%s: no golden reference", name)
	case stripNotes(final) != g.conf[name]:
		return fmt.Errorf("%s: final configuration differs from golden", name)
	case pass != want.FinalPass:
		return fmt.Errorf("%s: final_pass %v, golden %v", name, pass, want.FinalPass)
	case staticPct != want.StaticPct || dynamicPct != want.DynamicPct:
		return fmt.Errorf("%s: static/dynamic %v/%v, golden %v/%v", name, staticPct, dynamicPct, want.StaticPct, want.DynamicPct)
	}
	return nil
}

// regenGolden rewrites dir from the seed evaluator, one notes-stripped
// configuration per Figure 10 kernel at class W plus golden.json.
func regenGolden(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stats := make(map[string]goldenStats)
	for _, k := range experiments.Fig10Benches {
		b, err := kernels.Get(k, kernels.ClassW)
		if err != nil {
			return err
		}
		sh, err := shadow.Collect(jobName(k), b.Module, b.MaxSteps)
		if err != nil {
			return err
		}
		res, err := search.Run(search.Target{Module: b.Module, Verify: b.Verify, MaxSteps: b.MaxSteps, Base: b.Base},
			search.Options{
				Workers: 2, Granularity: config.KindInsn, BinarySplit: true, Prioritize: true,
				Engine: search.EngineOff, NoCompile: true, NoProve: true,
				Shadow: sh, SensThreshold: b.SensTol,
			})
		if err != nil {
			return fmt.Errorf("%s: %w", jobName(k), err)
		}
		var buf bytes.Buffer
		if err := res.Final.Write(&buf); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, jobName(k)+".conf"), []byte(stripNotes(buf.String())), 0o644); err != nil {
			return err
		}
		stats[jobName(k)] = goldenStats{res.FinalPass, res.Stats.StaticPct, res.Stats.DynamicPct}
		fmt.Printf("%s final_pass=%v static_pct=%v dynamic_pct=%v\n", jobName(k), res.FinalPass, res.Stats.StaticPct, res.Stats.DynamicPct)
	}
	data, err := json.MarshalIndent(stats, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "golden.json"), append(data, '\n'), 0o644)
}
