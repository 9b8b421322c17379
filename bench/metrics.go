package main

// metricDef is one reported metric. BENCHMARK.json at the repository
// root lists the same names, units, directions and bounds; the smoke
// test keeps the two from drifting apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change counts as a regression. Per-layer
	// metrics carry none (0).
	Bound float64
}

// endToEnd are the metrics a user of fpmix sees, measured with tracing
// off. ok_frac is the complement of the failed-job share: a share that
// is 0 on every healthy run cannot be compared as a ratio of medians.
//
// The bounds follow the run-to-run spread on a shared 2-vCPU VM whose
// speed changes by up to 2.5× from one minute to the next. Times are
// normalized for that (host.go), which leaves ten runs of a workload
// spreading by 2-12% between their quartiles (README.md, "Noise"), so
// each bound is 25%, about three times the widest spread; set-up, a few
// tens of milliseconds on most workloads, spreads by up to 20%.
var endToEnd = []metricDef{
	{"round_s", "s", "lower", 0.25},
	{"job_s.p50", "s", "lower", 0.25},
	{"job_s.p80", "s", "lower", 0.25},
	{"cpu_s_per_round", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"ok_frac", "ratio", "higher", 0.01},
}

// perLayer are measured in the traced variant of a run, from spans the
// benchmark records around its calls into each layer. A layer that a
// workload does not reach reads 0 there.
var perLayer = []metricDef{
	{"kernels.build_ms", "ms", "lower", 0},
	{"vm.link_ms", "ms", "lower", 0},
	{"vm.compiled_mips", "Minstr/s", "higher", 0},
	{"vm.interp_mips", "Minstr/s", "higher", 0},
	{"vm.steps_per_job", "count", "lower", 0},
	{"shadow.collect_ms", "ms", "lower", 0},
	{"errbound.analyze_ms", "ms", "lower", 0},
	{"dataflow.analyze_ms", "ms", "lower", 0},
	{"replace.precompile_ms", "ms", "lower", 0},
	{"search.runner_build_ms", "ms", "lower", 0},
	{"search.first_unit_ms", "ms", "lower", 0},
	{"search.unit_ms.p50", "ms", "lower", 0},
	{"search.unit_ms.p90", "ms", "lower", 0},
	{"search.unit_ms.sum", "ms", "lower", 0},
	{"search.units", "count", "lower", 0},
	{"search.self_ms", "ms", "lower", 0},
	{"search.busy_frac", "ratio", "higher", 0},
	{"search.shortcut_frac", "ratio", "higher", 0},
	{"search.forked_frac", "ratio", "higher", 0},
	{"search.prefix_saved_minstr", "Minstr", "higher", 0},
	{"verify.calls", "count", "lower", 0},
	{"verify.ms", "ms", "lower", 0},
	{"service.submit_ms.p50", "ms", "lower", 0},
	{"service.claim_ms.p50", "ms", "lower", 0},
	{"service.report_ms.p50", "ms", "lower", 0},
	{"service.rpcs_per_unit", "count", "lower", 0},
	{"service.queue_ms.p50", "ms", "lower", 0},
	{"service.run_ms.p50", "ms", "lower", 0},
	{"service.client_tail_ms.p50", "ms", "lower", 0},
	{"fleet.units", "count", "lower", 0},
	{"fleet.discarded", "count", "lower", 0},
	{"fleet.mean_unit_ms", "ms", "lower", 0},
	{"fleet.busy_frac", "ratio", "higher", 0},
	{"jobs.cache_hit_frac", "ratio", "higher", 0},
	{"jobs.store_kb_per_job", "KiB", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
}
