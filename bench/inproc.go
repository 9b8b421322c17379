package main

import (
	"bytes"
	"sync"
	"time"

	"fpmix/internal/config"
	"fpmix/internal/search"
	"fpmix/internal/shadow"
	"fpmix/internal/vm"
)

// inprocClient runs each job as the daemon's service.execute does after
// building the target — shadow collection, unit-runner build, then
// search.Run with the service's options — but in the benchmark's own
// process, with units routed through Options.Units to a timed wrapper
// around search.NewUnitRunner.
type inprocClient struct{ env *runEnv }

func (c *inprocClient) start() error { return nil }
func (c *inprocClient) close()       {}

func (c *inprocClient) beginRound(*tracer) (roundMark, error) { return roundMark{}, nil }
func (c *inprocClient) endRound(roundMark, *roundObs)         {}

// timedUnits is the Options.Units seam: every evaluation unit of the
// search, the final union included, passes through it.
type timedUnits struct {
	r           *search.UnitRunner
	tr          *tracer
	job, parent int
}

func (u *timedUnits) EvaluateUnit(eu search.EvalUnit) (search.Verdict, error) {
	id := u.tr.begin("search.unit", eu.Label, u.job, u.parent)
	defer u.tr.end(id)
	return u.r.Evaluate(eu)
}

// provCounts tallies the verdicts the search streams through
// Options.Observe (called from the search's coordinating goroutine).
type provCounts struct{ verdicts, shortcuts int }

func (p *provCounts) observe(ev search.Eval) {
	p.verdicts++
	if ev.Prov != search.ProvEvaluated {
		p.shortcuts++
	}
}

func (c *inprocClient) job(kernel string, tr *tracer, id int) jobSample {
	b := c.env.benches[kernel]
	s := jobSample{kernel: kernel, id: id}
	start := time.Now()
	root := tr.begin("job", jobName(kernel), id, 0)
	var run int // the search.run span, parent of verify spans
	verify := b.Verify
	if tr != nil {
		var mu sync.Mutex
		verify = func(out []vm.OutVal) bool {
			t0 := time.Now()
			ok := b.Verify(out)
			d := time.Since(t0)
			tr.record("verify", id, run, t0, d)
			mu.Lock()
			s.verifyCalls++
			s.verifyTime += d
			mu.Unlock()
			return ok
		}
	}
	target := search.Target{Module: b.Module, Verify: verify, MaxSteps: b.MaxSteps, Base: b.Base}

	sp := tr.begin("shadow.collect", "", id, root)
	sh, err := shadow.Collect(jobName(kernel), b.Module, b.MaxSteps)
	tr.end(sp)
	if err != nil {
		s.err = err
		return s
	}
	sp = tr.begin("search.runner_build", "", id, root)
	runner, err := search.NewUnitRunner(target, search.Options{Engine: search.EngineFork})
	tr.end(sp)
	if err != nil {
		s.err = err
		return s
	}
	var prov provCounts
	run = tr.begin("search.run", "", id, root)
	res, err := search.Run(target, search.Options{
		Workers:       evalSlots,
		Granularity:   config.KindInsn,
		BinarySplit:   true,
		Prioritize:    true,
		Engine:        search.EngineFork,
		Shadow:        sh,
		SensThreshold: b.SensTol,
		Units:         &timedUnits{r: runner, tr: tr, job: id, parent: run},
		Observe:       prov.observe,
	})
	tr.end(run)
	tr.end(root)
	s.wall = time.Since(start)
	if err != nil {
		s.err = err
		return s
	}
	var buf bytes.Buffer
	if err := res.Final.Write(&buf); err != nil {
		s.err = err
		return s
	}
	s.err = c.env.golden.check(kernel, buf.String(), res.FinalPass, res.Stats.StaticPct, res.Stats.DynamicPct)
	s.verdicts, s.shortcuts = prov.verdicts, prov.shortcuts
	s.tested, s.forked = res.Tested, res.Forked
	s.prefixSaved = res.PrefixInstrsSaved
	s.runSpan = run
	return s
}

// fromSpans fills an in-process job's search-layer timings from the
// spans of its traced run.
func (s *jobSample) fromSpans(spans []span) {
	var first time.Duration
	for _, sp := range spans {
		if sp.Job != s.id {
			continue
		}
		switch sp.Name {
		case "shadow.collect":
			s.shadow = sp.dur()
		case "search.runner_build":
			s.runnerBuild = sp.dur()
		case "search.run":
			s.searchWall = sp.dur()
		case "search.unit":
			s.units = append(s.units, sp.dur())
			if len(s.units) == 1 || sp.Start < first {
				s.firstUnit, first = sp.dur(), sp.Start
			}
		}
	}
	s.self = selfTime(spans, s.runSpan)
}
