package main

import (
	"math"
	"time"

	"fpmix/internal/dataflow"
	"fpmix/internal/errbound"
	"fpmix/internal/kernels"
	"fpmix/internal/replace"
	"fpmix/internal/shadow"
	"fpmix/internal/vm"
)

// probe is one kernel's standalone layer timings, keyed by span name:
// calls a job's search makes internally, repeated on the same module
// outside the jobs, so the searches themselves do unchanged work.
type probe struct {
	d     map[string]time.Duration
	steps uint64 // instructions one run of the base module executes
}

// probeReps is how many times each probe runs; the median is kept.
const probeReps = 3

func probeKernels(benches map[string]*kernels.Bench, tr *tracer) (map[string]probe, error) {
	out := make(map[string]probe)
	for name, b := range benches {
		samples := make(map[string][]float64)
		var steps uint64
		for i := 0; i < probeReps; i++ {
			p, err := probeOnce(name, b, tr)
			if err != nil {
				return nil, err
			}
			for layer, d := range p.d {
				samples[layer] = append(samples[layer], float64(d))
			}
			steps = p.steps
		}
		p := probe{d: make(map[string]time.Duration), steps: steps}
		for layer, xs := range samples {
			p.d[layer] = time.Duration(median(xs))
		}
		out[name] = p
	}
	return out, nil
}

// probeOnce times each layer call once on the kernel's base module.
func probeOnce(name string, b *kernels.Bench, tr *tracer) (probe, error) {
	p := probe{d: make(map[string]time.Duration)}
	var err error
	timed := func(layer string, f func() error) {
		if err != nil {
			return
		}
		id := tr.begin(layer, jobName(name), 0, 0)
		t0 := time.Now()
		err = f()
		p.d[layer] = time.Since(t0)
		tr.end(id)
	}
	var lp *vm.Program
	timed("vm.link", func() (e error) { lp, e = vm.Link(b.Module); return e })
	if err == nil {
		m := lp.NewMachine() // ResetTo the linked program: the compiled tier
		m.MaxSteps = b.MaxSteps
		timed("vm.compiled_run", m.Run)
		p.steps = m.Steps
	}
	var mi *vm.Machine
	if err == nil {
		mi, err = vm.New(b.Module) // unlinked: the interpreter the profiling run uses
	}
	if err == nil {
		mi.MaxSteps = b.MaxSteps
		timed("vm.interp_run", mi.Run)
	}
	timed("errbound.analyze", func() error { _, e := errbound.Analyze(b.Module, errbound.Options{}); return e })
	timed("dataflow.analyze", func() error { _, e := dataflow.Analyze(b.Module); return e })
	timed("replace.precompile", func() error { _, e := replace.Precompile(b.Module, replace.InstrumentOptions{}); return e })
	timed("shadow.collect", func() error { _, e := shadow.Collect(jobName(name), b.Module, b.MaxSteps); return e })
	return p, err
}

// layerMetrics derives every per-layer metric from the traced rounds.
// Per-job quantities are reported as the median over the traced jobs,
// per-request and per-unit latencies as percentiles over all of them,
// and shares as ratios of totals. It also returns the per-kernel split
// of job wall into layers.
func layerMetrics(w *workload, rounds []roundObs, probes map[string]probe, builds []time.Duration, spans []span) (map[string]float64, map[string]map[string]float64) {
	var js []jobSample
	var fleetUnits, fleetDiscarded int
	var fleetWall, tracedWall time.Duration
	var storeBytes int64
	for _, r := range rounds {
		if !r.traced {
			continue
		}
		tracedWall += r.wall
		for _, j := range r.jobs {
			if j.runSpan != 0 {
				j.fromSpans(spans)
			}
			js = append(js, j)
		}
		fleetUnits += r.units
		fleetDiscarded += r.discarded
		fleetWall += r.unitWall
		storeBytes += r.storeBytes
	}
	n := float64(len(js))

	var unitMS []float64
	var unitSum, searchWall time.Duration
	var verdicts, shortcuts, tested, forked, cacheHits int
	var totalSteps uint64
	var compiled, interp time.Duration
	for _, j := range js {
		for _, u := range j.units {
			unitMS = append(unitMS, ms(u))
			unitSum += u
		}
		searchWall += j.searchWall
		verdicts += j.verdicts
		shortcuts += j.shortcuts
		tested += j.tested
		forked += j.forked
		cacheHits += j.cacheHits
		p := probes[j.kernel]
		totalSteps += p.steps
		compiled += p.d["vm.compiled_run"]
		interp += p.d["vm.interp_run"]
	}
	buildMS := make([]float64, len(builds))
	for i, b := range builds {
		buildMS[i] = ms(b)
	}
	byRoute := map[string][]float64{}
	for _, s := range spans {
		byRoute[s.Name] = append(byRoute[s.Name], ms(s.dur()))
	}
	fleetRPCs := len(byRoute["http.claim"]) + len(byRoute["http.report"]) + len(byRoute["http.fleet"])

	perJob := func(f func(j jobSample) float64) float64 { return medianOver(js, f) }
	jobMS := func(f func(j jobSample) time.Duration) float64 { return medianMS(js, f) }
	probeMS := func(layer string) float64 {
		return jobMS(func(j jobSample) time.Duration { return probes[j.kernel].d[layer] })
	}
	m := map[string]float64{
		"kernels.build_ms":           median(buildMS),
		"vm.link_ms":                 probeMS("vm.link"),
		"vm.compiled_mips":           ratio(float64(totalSteps)/1e6, secs(compiled)),
		"vm.interp_mips":             ratio(float64(totalSteps)/1e6, secs(interp)),
		"vm.steps_per_job":           perJob(func(j jobSample) float64 { return float64(probes[j.kernel].steps) }),
		"errbound.analyze_ms":        probeMS("errbound.analyze"),
		"dataflow.analyze_ms":        probeMS("dataflow.analyze"),
		"replace.precompile_ms":      probeMS("replace.precompile"),
		"shadow.collect_ms":          jobMS(func(j jobSample) time.Duration { return j.shadow }),
		"search.runner_build_ms":     jobMS(func(j jobSample) time.Duration { return j.runnerBuild }),
		"search.first_unit_ms":       jobMS(func(j jobSample) time.Duration { return j.firstUnit }),
		"search.unit_ms.p50":         quantile(unitMS, 0.5),
		"search.unit_ms.p90":         quantile(unitMS, 0.9),
		"search.unit_ms.sum":         jobMS(func(j jobSample) time.Duration { return sumDur(j.units) }),
		"search.units":               perJob(func(j jobSample) float64 { return float64(len(j.units)) }),
		"search.self_ms":             jobMS(func(j jobSample) time.Duration { return j.self }),
		"search.busy_frac":           ratio(secs(unitSum), evalSlots*secs(searchWall)),
		"search.shortcut_frac":       ratio(float64(shortcuts), float64(verdicts)),
		"search.forked_frac":         ratio(float64(forked), float64(tested)),
		"search.prefix_saved_minstr": perJob(func(j jobSample) float64 { return float64(j.prefixSaved) / 1e6 }),
		"verify.calls":               perJob(func(j jobSample) float64 { return float64(j.verifyCalls) }),
		"verify.ms":                  jobMS(func(j jobSample) time.Duration { return j.verifyTime }),
		"service.submit_ms.p50":      median(byRoute["http.submit"]),
		"service.claim_ms.p50":       median(byRoute["http.claim"]),
		"service.report_ms.p50":      median(byRoute["http.report"]),
		"service.rpcs_per_unit":      ratio(float64(fleetRPCs), float64(fleetUnits)),
		"service.queue_ms.p50":       jobMS(func(j jobSample) time.Duration { return j.queue }),
		"service.run_ms.p50":         0,
		"service.client_tail_ms.p50": jobMS(func(j jobSample) time.Duration { return j.tail }),
		"fleet.units":                ratio(float64(fleetUnits), n),
		"fleet.discarded":            ratio(float64(fleetDiscarded), n),
		"fleet.mean_unit_ms":         ratio(ms(fleetWall), float64(fleetUnits)),
		"fleet.busy_frac":            ratio(secs(fleetWall), evalSlots*secs(tracedWall)),
		"jobs.cache_hit_frac":        ratio(float64(cacheHits), float64(verdicts)),
		"jobs.store_kb_per_job":      ratio(float64(storeBytes)/1024, n),
		"trace.overhead_frac":        traceOverhead(rounds),
	}
	if w.service {
		// The daemon collects the profile internally; time it standalone.
		m["shadow.collect_ms"] = probeMS("shadow.collect")
		m["service.run_ms.p50"] = jobMS(func(j jobSample) time.Duration { return j.searchWall })
	}

	byKernel := make(map[string][]jobSample)
	for _, j := range js {
		byKernel[j.kernel] = append(byKernel[j.kernel], j)
	}
	split := make(map[string]map[string]float64)
	for k, kj := range byKernel {
		med := func(f func(j jobSample) time.Duration) float64 { return medianMS(kj, f) }
		sp := map[string]float64{
			"job_ms":        med(func(j jobSample) time.Duration { return j.wall }),
			"unit_sum_ms":   med(func(j jobSample) time.Duration { return sumDur(j.units) }),
			"first_unit_ms": med(func(j jobSample) time.Duration { return j.firstUnit }),
		}
		if w.service {
			sp["queue_ms"] = med(func(j jobSample) time.Duration { return j.queue })
			sp["run_ms"] = med(func(j jobSample) time.Duration { return j.searchWall })
			sp["client_tail_ms"] = med(func(j jobSample) time.Duration { return j.tail })
		} else {
			sp["shadow_ms"] = med(func(j jobSample) time.Duration { return j.shadow })
			sp["runner_build_ms"] = med(func(j jobSample) time.Duration { return j.runnerBuild })
			sp["search_self_ms"] = med(func(j jobSample) time.Duration { return j.self })
			sp["verify_ms"] = med(func(j jobSample) time.Duration { return j.verifyTime })
		}
		split[jobName(k)] = sp
	}
	return m, split
}

// traceOverhead is how much longer a job runs traced: per kernel, the
// median unstolen wall of its traced jobs over that of its untraced
// ones, the geometric mean of those ratios over the kernels, minus 1.
// Traced and untraced rounds alternate, so drift in the machine's speed
// over the run reaches both sides alike, and medians per kernel keep a
// job hit by a burst of steal from deciding the result.
func traceOverhead(rounds []roundObs) float64 {
	traced := make(map[string][]float64)
	untraced := make(map[string][]float64)
	for _, r := range rounds {
		side := untraced
		if r.traced {
			side = traced
		}
		for _, j := range r.jobs {
			side[j.kernel] = append(side[j.kernel], secs(j.unstolen))
		}
	}
	var logSum, n float64
	for k, t := range traced {
		if u := untraced[k]; len(u) > 0 {
			logSum += math.Log(median(t) / median(u))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum/n) - 1
}

func medianOver(js []jobSample, f func(j jobSample) float64) float64 {
	xs := make([]float64, len(js))
	for i, j := range js {
		xs[i] = f(j)
	}
	return median(xs)
}

func medianMS(js []jobSample, f func(j jobSample) time.Duration) float64 {
	return medianOver(js, func(j jobSample) float64 { return ms(f(j)) })
}

func sumDur(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}
