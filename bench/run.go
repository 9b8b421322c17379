package main

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"syscall"
	"time"

	"fpmix/internal/experiments"
	"fpmix/internal/kernels"
)

// evalSlots is the evaluation concurrency of every workload: the
// benchmark host has 2 CPUs, so at most 2 evaluations run at once
// (search.Options.Workers, the daemon's in-process pool, or 2 remote
// workers with Parallel 1).
const evalSlots = 2

// workload is one traffic mix. A single closed-loop client submits the
// next job only after the previous one finished.
type workload struct {
	name    string
	why     string
	kernels []string
	service bool // through the HTTP API instead of in-process
	remote  bool // remote-only daemon, fresh store every round
}

var workloads = []workload{
	{
		name:    "search-eval",
		why:     "in-process search on lu, bt, sp: unit evaluation (vm, fork engine) is most of each job",
		kernels: []string{"lu", "bt", "sp"},
	},
	{
		name:    "search-analysis",
		why:     "in-process search on ep, ft, cg, mg: short searches where shadow, analyses and the profiling run dominate",
		kernels: []string{"ep", "ft", "cg", "mg"},
	},
	{
		name:    "service-cold",
		why:     "all 7 kernels via HTTP to a remote-only daemon and 2 workers over a 5 ms link, fresh store each round",
		kernels: experiments.Fig10Benches,
		service: true, remote: true,
	},
	{
		name:    "service-warm",
		why:     "all 7 kernels resubmitted to one daemon whose verdict cache is full: the daemon's fixed per-job cost",
		kernels: experiments.Fig10Benches,
		service: true,
	},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// runConfig shapes one run.
type runConfig struct {
	workload *workload
	seed     int64
	seconds  float64
	traced   bool
	setups   int           // set-up repeats at least this often; setup_s is their median
	setupFor time.Duration // and until this much time has passed
	minJobs  int           // timed rounds continue until at least this many jobs ran
	rounds   int           // when > 0, exactly this many timed rounds
	kernels  []string      // when set, replaces the workload's kernel list
	workdir  string
}

// runEnv is what set-up produces and every job reads.
type runEnv struct {
	seed    int64
	workdir string
	golden  *golden
	benches map[string]*kernels.Bench
}

// client runs jobs for one workload.
type client interface {
	start() error
	beginRound(tr *tracer) (roundMark, error)
	job(kernel string, tr *tracer, id int) jobSample
	endRound(roundMark, *roundObs)
	close()
}

// jobSample is one job's outcome and its layer timings: from spans
// after a traced in-process round, from the job record and summary on
// the service workloads.
type jobSample struct {
	kernel   string
	id       int
	wall     time.Duration
	unstolen time.Duration // wall with the stolen share removed (host.go)
	err      error
	// runSpan is the search.run span of a traced in-process job.
	runSpan int

	shadow, runnerBuild, self time.Duration
	// searchWall is the search.run span in process, the daemon's
	// Started→Finished on the service.
	searchWall                          time.Duration
	firstUnit                           time.Duration
	units                               []time.Duration
	verifyCalls                         int
	verifyTime                          time.Duration
	verdicts, shortcuts, tested, forked int
	cacheHits                           int
	prefixSaved                         uint64
	queue, tail                         time.Duration // service only
}

// roundObs is one timed round.
type roundObs struct {
	wall     time.Duration
	unstolen time.Duration // wall with the stolen share removed (host.go)
	cpu      time.Duration // process CPU time
	host     hostTimes     // guest CPU time over the round
	speed    float64       // hostSpeed just before the round
	peakRSS  float64       // MiB resident at the round's peak
	traced   bool
	jobs     []jobSample
	err      error
	// Fleet registry and store deltas across the round (service only).
	units, discarded int
	unitWall         time.Duration
	storeBytes       int64
}

// result is everything a run measured.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Split is the traced run's per-kernel layer breakdown (medians
	// over the kernel's jobs, in ms).
	Split map[string]map[string]float64 `json:"split,omitempty"`
	// Host is how much CPU time the hypervisor stole during the timed
	// rounds, how fast the host ran, and the walls as measured, before
	// normalization.
	Host map[string]float64 `json:"host"`

	endToEnd map[string]float64
	layers   map[string]float64
	spans    []span
}

// run executes one workload: set-up (repeated, median reported), one
// untimed warm-up round, then timed rounds. End-to-end times are
// reported in reference seconds (host.go). A traced run alternates
// untraced and traced rounds, so its tracing overhead is measured
// against rounds of the same process.
func run(cfg runConfig) (*result, error) {
	w := cfg.workload
	names := w.kernels
	if cfg.kernels != nil {
		names = cfg.kernels
	}
	env := &runEnv{seed: cfg.seed, workdir: cfg.workdir}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	var cl client = &inprocClient{env: env}
	if w.service {
		cl = &svcClient{env: env, remote: w.remote}
	}
	defer cl.close()
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}

	var setups, setupSpeeds []float64
	var builds []time.Duration
	setupHost, setupStart := readHost(), time.Now()
	for i := 0; i < max(cfg.setups, 1) || time.Since(setupStart) < cfg.setupFor; i++ {
		cl.close()
		setupSpeeds = append(setupSpeeds, hostSpeed())
		start := time.Now()
		g, err := loadGolden()
		if err != nil {
			return nil, err
		}
		env.golden = g
		env.benches = make(map[string]*kernels.Bench)
		for _, k := range names {
			id := tr.begin("kernels.build", jobName(k), 0, 0)
			t0 := time.Now()
			b, err := kernels.Get(k, kernels.ClassW)
			builds = append(builds, time.Since(t0))
			tr.end(id)
			if err != nil {
				return nil, err
			}
			env.benches[k] = b
		}
		if err := cl.start(); err != nil {
			return nil, err
		}
		nextID := 0
		if w.service && !w.remote {
			// Fill the verdict cache: every later job is all hits.
			if err := untimedRound(cl, names, &nextID); err != nil {
				return nil, fmt.Errorf("cold pass: %w", err)
			}
		}
		setups = append(setups, secs(time.Since(start)))
	}
	setupHost = readHost().since(setupHost)

	rng := rand.New(rand.NewSource(cfg.seed))
	order := func() []string {
		o := append([]string(nil), names...)
		rng.Shuffle(len(o), func(i, j int) { o[i], o[j] = o[j], o[i] })
		return o
	}
	nextID := 0
	if err := untimedRound(cl, order(), &nextID); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	var rounds []roundObs
	jobsRun := 0
	start := time.Now()
	for i := 0; ; i++ {
		var rtr *tracer
		if cfg.traced && i%2 == 1 {
			rtr = tr
		}
		obs, err := runRound(cl, order(), rtr, &nextID)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, obs)
		jobsRun += len(obs.jobs)
		if cfg.rounds > 0 {
			if i+1 >= cfg.rounds {
				break
			}
		} else if time.Since(start).Seconds() >= cfg.seconds && jobsRun >= cfg.minJobs && (!cfg.traced || i >= 1) {
			break
		}
	}

	res := &result{Workload: w.name, Seed: cfg.seed, Trace: cfg.traced, Correct: true}
	var walls, rawWalls, jobWalls, rawJobWalls, cpus, speeds, peaks []float64
	var host hostTimes
	for _, r := range rounds {
		speeds = append(speeds, r.speed)
		for _, j := range r.jobs {
			res.Attempted++
			if j.err != nil {
				res.Failed++
				res.Correct = false
				fmt.Fprintln(os.Stderr, "fpmixbench: job failed:", j.err)
			}
			if !r.traced {
				jobWalls = append(jobWalls, secs(j.unstolen))
				rawJobWalls = append(rawJobWalls, secs(j.wall))
			}
		}
		if !r.traced {
			walls = append(walls, secs(r.unstolen))
			rawWalls = append(rawWalls, secs(r.wall))
			cpus = append(cpus, secs(r.cpu))
			peaks = append(peaks, r.peakRSS)
			host = host.add(r.host)
		}
	}
	// One speed for the whole run: a single probe reading is a 5 ms
	// snapshot, but the median over the run follows the host's state.
	speed := median(speeds)
	res.endToEnd = map[string]float64{
		"round_s":         hdQuantile(walls, 0.5) * speed,
		"job_s.p50":       hdQuantile(jobWalls, 0.5) * speed,
		"job_s.p80":       hdQuantile(jobWalls, 0.8) * speed,
		"cpu_s_per_round": mean(cpus) * speed,
		"setup_s":         median(setups) * setupHost.share() * median(setupSpeeds),
		"peak_rss_mb":     median(peaks),
		"ok_frac":         float64(res.Attempted-res.Failed) / float64(res.Attempted),
	}
	res.Host = map[string]float64{
		"steal_frac":    1 - host.share(),
		"speed":         speed,
		"round_s.raw":   hdQuantile(rawWalls, 0.5),
		"job_s.p50.raw": hdQuantile(rawJobWalls, 0.5),
		"job_s.p80.raw": hdQuantile(rawJobWalls, 0.8),
		"setup_s.raw":   median(setups),
	}
	if cfg.traced {
		probes, err := probeKernels(env.benches, tr)
		if err != nil {
			return nil, err
		}
		res.spans = tr.snapshot()
		res.layers, res.Split = layerMetrics(w, rounds, probes, builds, res.spans)
		res.Metrics = res.layers
	} else {
		res.Metrics = res.endToEnd
	}
	return res, nil
}

// runRound runs every kernel of order once, closed-loop. It returns an
// error only when the round itself could not run; job failures are
// recorded in the samples.
func runRound(cl client, order []string, tr *tracer, nextID *int) (roundObs, error) {
	obs := roundObs{traced: tr != nil}
	mark, err := cl.beginRound(tr)
	if err != nil {
		return obs, err
	}
	obs.speed = hostSpeed()
	resetPeakRSS()
	h0, c0 := readHost(), cpuTime()
	start := time.Now()
	for _, k := range order {
		*nextID++
		j0 := readHost()
		j := cl.job(k, tr, *nextID)
		j.unstolen = unstolen(j.wall, readHost().since(j0))
		obs.jobs = append(obs.jobs, j)
	}
	obs.wall = time.Since(start)
	obs.cpu = cpuTime() - c0
	obs.host = readHost().since(h0)
	obs.unstolen = unstolen(obs.wall, obs.host)
	obs.peakRSS = peakRSSMiB()
	cl.endRound(mark, &obs)
	return obs, obs.err
}

// untimedRound runs a round outside the measurement (warm-up, cold
// pass), where any failed job aborts the run.
func untimedRound(cl client, order []string, nextID *int) error {
	obs, err := runRound(cl, order, nil, nextID)
	if err != nil {
		return err
	}
	for _, j := range obs.jobs {
		if j.err != nil {
			return j.err
		}
	}
	return nil
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
