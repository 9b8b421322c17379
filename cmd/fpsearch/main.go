// Command fpsearch runs the automatic breadth-first mixed-precision
// search (paper §2.2) on a benchmark and reports the Figure 10 metrics,
// optionally writing the final composed configuration.
//
// By default the search is sensitivity-guided: a shadow-value pass
// (internal/shadow, one instrumented run) profiles per-instruction
// single-precision error first, the work queue is ordered safest-first,
// and predictably hopeless aggregates skip their evaluation runs.
// -nosens disables all of it, reproducing the counts-prioritized
// baseline trajectory exactly.
//
// The search is crash-tolerant and resumable: -timeout bounds each
// evaluation, -retries heals transient faults, -checkpoint journals every
// settled verdict so a killed search can pick up with -resume, -chaos
// arms seeded fault injection (a self-test: the final configuration must
// not change), and a SIGINT stops the search gracefully with the
// best-so-far configuration.
//
//	fpsearch -bench mg -class W -o mg-final.cfg
//	fpsearch -bench cg -class A -granularity block -workers 8
//	fpsearch -bench ep -class W -nosens
//	fpsearch -bench lu -class A -checkpoint lu.ckpt      # later: -resume lu.ckpt
//	fpsearch -bench ep -class W -chaos 42 -retries 3
//	fpsearch -bench mg -class W -noengine            # the from-scratch oracle
//
// Evaluations run in fork-point mode: one donor run of the base
// configuration is snapshotted at every candidate site's first execution
// and each configuration runs only its divergent suffix, re-linked
// incrementally. -noengine evaluates every configuration from scratch
// through the seed pipeline instead, with no memo (the finals are
// byte-identical either way).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"

	"fpmix/internal/config"
	"fpmix/internal/faultinject"
	"fpmix/internal/kernels"
	"fpmix/internal/search"
	"fpmix/internal/shadow"
)

func main() {
	bench := flag.String("bench", "", "benchmark to search (one of kernels.Names())")
	class := flag.String("class", "W", "input class (W, A, C)")
	out := flag.String("o", "", "write the final composed configuration here")
	workers := flag.Int("workers", runtime.NumCPU(), "parallel evaluations")
	gran := flag.String("granularity", "insn", "finest search level: func, block or insn")
	noSplit := flag.Bool("nosplit", false, "disable the binary-splitting optimization")
	noPrio := flag.Bool("noprio", false, "disable profile-based prioritization")
	noEngine := flag.Bool("noengine", false, "evaluate every configuration from scratch through the seed pipeline instead of the fork engine")
	noCompile := flag.Bool("nocompile", false, "run evaluations on the per-step interpreter instead of the compiled engine (differential testing)")
	noPrune := flag.Bool("noprune", false, "disable static candidate pruning (dataflow unsafe sinks, zero-weight pieces)")
	noProve := flag.Bool("noprove", false, "disable the static error-bound prover (every verdict comes from evaluation)")
	noSens := flag.Bool("nosens", false, "disable sensitivity guidance (shadow-value ordering and prediction gating)")
	shadowIn := flag.String("shadow", "", "load a saved sensitivity profile instead of collecting one")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the search here")
	compose := flag.Bool("compose", false, "run the second search phase when the union fails (§3.1)")
	verbose := flag.Bool("v", false, "list every passing piece")
	timeout := flag.Duration("timeout", 0, "per-evaluation wall-clock bound (0 = none)")
	retries := flag.Int("retries", 0, "retry budget for transient evaluation faults (default 3 under -chaos)")
	checkpoint := flag.String("checkpoint", "", "journal settled verdicts to this file (created fresh)")
	resume := flag.String("resume", "", "resume from this checkpoint journal, then keep appending to it")
	chaosSeed := flag.Int64("chaos", 0, "arm seeded fault injection on evaluations (0 = off)")
	jsonOut := flag.Bool("json", false, "print the machine-readable result summary (the fpmixd status-endpoint shape) instead of the report")
	flag.Parse()

	if *bench == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	b, err := kernels.Get(*bench, kernels.Class(*class))
	if err != nil {
		fatal(err)
	}
	g := config.KindInsn
	switch *gran {
	case "func":
		g = config.KindFunc
	case "block":
		g = config.KindBlock
	case "insn":
	default:
		fatal(fmt.Errorf("unknown granularity %q", *gran))
	}
	target := search.Target{
		Module:   b.Module,
		Verify:   b.Verify,
		MaxSteps: b.MaxSteps,
		Base:     b.Base,
	}
	// Fork-point evaluation is the default; -noengine drops to the
	// from-scratch seed pipeline. Finals are byte-identical either way
	// (pinned by the fork and engine identity tests).
	mode := search.EngineFork
	if *noEngine {
		mode = search.EngineOff
	}
	var sh *shadow.Profile
	if !*noSens {
		if *shadowIn != "" {
			f, err := os.Open(*shadowIn)
			if err != nil {
				fatal(err)
			}
			sh, err = shadow.Read(f)
			f.Close()
			if err != nil {
				fatal(err)
			}
		} else if sh, err = shadow.Collect(*bench+"."+*class, b.Module, b.MaxSteps); err != nil {
			fatal(err)
		}
	}

	// Checkpoint journal: -checkpoint starts one fresh, -resume replays a
	// previous run's and keeps appending to it. The fingerprint ties the
	// journal to this exact search: the image digest catches a changed
	// program, the option set a changed search shape — a mismatch on
	// resume reports which one diverged.
	var journal *search.Journal
	imageFP, err := search.ModuleFingerprint(b.Module)
	if err != nil {
		fatal(err)
	}
	fingerprint := search.Fingerprint{
		Image:   imageFP,
		Options: fmt.Sprintf("%s.%s gran=%s", *bench, *class, *gran),
	}
	switch {
	case *checkpoint != "" && *resume != "":
		fatal(fmt.Errorf("-checkpoint and -resume are mutually exclusive (resume keeps appending)"))
	case *checkpoint != "":
		if journal, err = search.NewJournal(*checkpoint, fingerprint); err != nil {
			fatal(err)
		}
	case *resume != "":
		if journal, err = search.ResumeJournal(*resume, fingerprint); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "fpsearch: resuming %d settled verdicts from %s\n",
			journal.Prior(), *resume)
	}
	if journal != nil {
		defer journal.Close()
	}

	var chaos *faultinject.Injector
	if *chaosSeed != 0 {
		chaos = faultinject.New(*chaosSeed, faultinject.DefaultRates, 0)
	}

	// SIGINT cancels the search gracefully: in-flight evaluations stop,
	// the best-so-far configuration is still reported (and written).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	res, err := search.Run(target, search.Options{
		Workers:       *workers,
		Granularity:   g,
		BinarySplit:   !*noSplit,
		Prioritize:    !*noPrio,
		Engine:        mode,
		NoCompile:     *noCompile,
		NoPrune:       *noPrune,
		NoProve:       *noProve,
		Shadow:        sh,
		SensThreshold: b.SensTol,
		Context:       ctx,
		Timeout:       *timeout,
		Retries:       *retries,
		Chaos:         chaos,
		Checkpoint:    journal,
	})
	if err != nil {
		fatal(err)
	}
	verdict := "fail"
	if res.FinalPass {
		verdict = "pass"
	}
	if res.Interrupted {
		verdict = "not run (interrupted)"
	}
	if !*jsonOut {
		fmt.Printf("benchmark:            %s.%s\n", *bench, *class)
		if res.Interrupted {
			fmt.Printf("interrupted:          yes — reporting the best-so-far configuration\n")
		}
		fmt.Printf("candidates:           %d\n", res.Candidates)
		fmt.Printf("configurations tested: %d (+%d memoized)\n", res.Tested, res.MemoHits)
		if mode == search.EngineFork {
			fmt.Printf("forked evaluations:   %d of %d (%d shared-prefix instructions saved)\n",
				res.Forked, res.Tested, res.PrefixInstrsSaved)
		}
		if res.Resumed > 0 {
			fmt.Printf("resumed:              %d verdicts replayed from the checkpoint\n", res.Resumed)
		}
		fmt.Printf("pruned candidates:    %d (%d unsafe sinks)\n", res.PrunedCandidates, len(res.Unsafe))
		if res.Proved > 0 {
			fmt.Printf("proved safe:          %d piece verdicts settled by the error-bound prover without a run\n", res.Proved)
		}
		if sh != nil {
			fmt.Printf("sensitivity:          guided (%d aggregate failures predicted without a run)\n", res.Predicted)
		} else {
			fmt.Printf("sensitivity:          off\n")
		}
		fmt.Printf("static replaced:      %.1f%%\n", res.Stats.StaticPct)
		fmt.Printf("dynamic replaced:     %.1f%%\n", res.Stats.DynamicPct)
		fmt.Printf("final verification:   %s\n", verdict)
		if res.Crashed > 0 || res.TimedOut > 0 {
			fmt.Printf("failures absorbed:    %d crashed, %d timed out (see result records for faults)\n",
				res.Crashed, res.TimedOut)
		}
		if chaos != nil {
			s := chaos.Stats()
			fmt.Printf("chaos: seed %d decided %d faults (%d panics, %d hangs, %d flaky, %d traps), %d absorbed, healed by %d retries\n",
				chaos.Seed(), s.Total(), s.Panics, s.Hangs, s.Flakes, s.Traps, res.Injected, res.Retried)
		} else if res.Retried > 0 {
			fmt.Printf("retries:              %d\n", res.Retried)
		}
		for _, label := range res.Nondeterministic {
			fmt.Printf("nondeterministic verifier: disagreeing verdicts on %s (pass kept)\n", label)
		}
	}
	finalCfg := res.Final
	if *compose && !res.FinalPass && !res.Interrupted {
		cr, err := search.Compose(target, res)
		if err != nil {
			fatal(err)
		}
		if !*jsonOut {
			fmt.Printf("second phase:         dropped %d pieces in %d tests, pass: %v\n",
				len(cr.Dropped), cr.Tested, cr.Pass)
			if cr.Pass {
				fmt.Printf("composed replaced:    %.1f%% static, %.1f%% dynamic\n",
					cr.Stats.StaticPct, cr.Stats.DynamicPct)
			}
		}
		if cr.Pass {
			finalCfg = cr.Config
		}
	}
	if *verbose && !*jsonOut {
		fmt.Println("passing pieces (coarsest granularity):")
		for _, p := range res.Passing {
			fmt.Printf("  %-40s %d instructions, weight %d\n", p.Label, len(p.Addrs), p.Weight)
		}
	}
	// -json prints the machine-readable summary — the same encoding the
	// fpmixd status endpoint serves, so tooling parses one shape for CLI
	// batches and service jobs alike.
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(search.Summarize(*bench+"."+*class, res)); err != nil {
			fatal(err)
		}
	}
	if *out != "" {
		if sh != nil {
			// Sensitivity notes ride along in the exchange format.
			shadow.AnnotateConfig(sh, finalCfg)
		}
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := finalCfg.Write(f); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "fpsearch: wrote %s\n", *out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fpsearch:", err)
	os.Exit(1)
}
