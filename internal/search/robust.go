package search

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"fpmix/internal/config"
	"fpmix/internal/faultinject"
	"fpmix/internal/vm"
)

// Failure classifies why an evaluated piece failed (FailNone on a pass).
type Failure uint8

// Failure classes.
const (
	// FailNone: the piece passed.
	FailNone Failure = iota
	// FailVerify: the run completed and the verification routine
	// rejected its output.
	FailVerify
	// FailTrap: the run trapped (NaN-driven divergence, out-of-bounds
	// access, step-budget exhaustion); the vm.Fault is attached.
	FailTrap
	// FailTimeout: the run exceeded the per-evaluation wall-clock bound
	// (or an injected hang exhausted the retry budget).
	FailTimeout
	// FailCrash: the evaluation goroutine panicked; the search recovered,
	// recorded the stack, and kept going.
	FailCrash
)

var failureNames = [...]string{"none", "verify", "trap", "timeout", "crash"}

func (f Failure) String() string {
	if int(f) < len(failureNames) {
		return failureNames[f]
	}
	return "failure?"
}

// defaultBackoff spaces retries of transient failures.
const defaultBackoff = 25 * time.Millisecond

// settler hardens evaluations: it classifies each attempt's outcome as a
// verdict, a deterministic failure, or a transient fault worth retrying,
// and drives the bounded retry-with-backoff loop. One settler serves all
// workers (it is stateless apart from its configuration).
type settler struct {
	ev      evaluator
	ctx     context.Context // never nil; Background when no bound is set
	timeout time.Duration   // per-attempt wall-clock bound (0 = none)
	retries int             // transient-retry budget per evaluation
	backoff time.Duration
	chaos   *faultinject.Injector
	// noConfirm skips the confirmation re-run of failing verification
	// verdicts. Only set when the evaluator's replay is exact (fork
	// engine, no chaos): re-running a deterministic evaluation cannot
	// change the verdict, so the confirmation is pure cost. With chaos
	// armed, confirmation stays on — it is what heals injected flaky
	// verdicts.
	noConfirm bool
}

// attemptOut is one attempt's classified outcome.
type attemptOut struct {
	out      outcome
	injected faultinject.Kind // != KindNone: an injected fault was absorbed
	crash    string           // non-empty: a real panic, with stack
	err      error
}

// runAttempt executes one evaluation attempt, applying the chaos decision
// for (key, n) and recovering panics.
func (s *settler) runAttempt(eff map[uint64]config.Precision, key string, n int) (ao attemptOut) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(faultinject.Injected); ok {
				ao = attemptOut{injected: faultinject.KindPanic}
				return
			}
			ao = attemptOut{crash: fmt.Sprintf("%v\n%s", r, debug.Stack())}
		}
	}()
	var d faultinject.Decision
	if s.chaos != nil {
		d = s.chaos.Decide(key, n)
	}
	switch d.Kind {
	case faultinject.KindPanic:
		panic(faultinject.Injected{Key: key, Attempt: n})
	case faultinject.KindHang:
		// A hung run: stall, then report the attempt as lost. The stall
		// honours cancellation so interrupts are not delayed by chaos.
		t := time.NewTimer(d.StallFor)
		select {
		case <-t.C:
		case <-s.ctx.Done():
			t.Stop()
		}
		return attemptOut{injected: faultinject.KindHang}
	}
	actx := s.ctx
	if s.timeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(actx, s.timeout)
		defer cancel()
	}
	if actx == context.Background() {
		actx = nil // plain Run: no watcher goroutine, no per-step flag poll
	}
	out, err := s.ev.evaluate(evalRequest{eff: eff, ctx: actx, trapAfter: d.TrapAfter, attempt: n})
	if err != nil {
		return attemptOut{err: err}
	}
	if out.fault != nil && out.fault.Kind == vm.FaultInjected {
		return attemptOut{out: out, injected: faultinject.KindTrap}
	}
	if d.Kind == faultinject.KindFlaky && out.fault == nil && out.pass {
		// The flaky verdict: a passing run misreported as failing, as a
		// nondeterministic verifier would. The settler's failing-verdict
		// confirmation re-run heals it (and flags the disagreement).
		out.pass = false
	}
	return attemptOut{out: out}
}

// settle drives one evaluation to a verdict. Classification:
//
//   - injected faults (panic, hang, armed trap) are transient: retry with
//     backoff while budget remains — the injector never faults a retry,
//     so the budget always suffices to reach a clean attempt;
//   - a real panic is a deterministic pipeline bug: settle FailCrash
//     immediately, stack attached, and let the pool keep going;
//   - a real trap is a deterministic property of the configuration:
//     settle FailTrap immediately;
//   - a cancelled run is an interrupt (parent context ended — the piece
//     stays unsettled) or a timeout (per-attempt bound hit — settle
//     FailTimeout, no retry: the bound is deterministic);
//   - a failing verification verdict is confirmed by one re-run when
//     retries are enabled; fail-then-pass disagreement flags the verifier
//     as nondeterministic and the pass wins.
func (s *settler) settle(eff map[uint64]config.Precision, key string) (v Verdict, err error) {
	start := time.Now()
	defer func() { v.Wall = time.Since(start) }()
	delay := s.backoff
	if delay <= 0 {
		delay = defaultBackoff
	}
	budget := s.retries
	confirming := false
	for n := 0; ; n++ {
		if s.ctx.Err() != nil {
			v.Interrupted = true
			return v, nil
		}
		v.Attempts = n + 1
		ao := s.runAttempt(eff, key, n)
		if ao.err != nil {
			return Verdict{}, ao.err
		}
		if ao.crash != "" {
			v.Pass, v.Failure, v.Stack = false, FailCrash, ao.crash
			return v, nil
		}
		if ao.injected != faultinject.KindNone {
			v.Injected++
			if budget > 0 {
				budget--
				v.Retried++
				timer := time.NewTimer(delay)
				select {
				case <-timer.C:
				case <-s.ctx.Done():
					timer.Stop()
				}
				delay *= 2
				continue
			}
			// Budget exhausted on an injected fault: settle it under the
			// failure class the real fault would have had.
			v.Pass = false
			switch ao.injected {
			case faultinject.KindPanic:
				v.Failure = FailCrash
			case faultinject.KindHang:
				v.Failure = FailTimeout
			default:
				v.Failure, v.Fault = FailTrap, ao.out.fault
			}
			return v, nil
		}
		v.Forked, v.PrefixSaved = ao.out.forked, ao.out.prefixSaved
		if f := ao.out.fault; f != nil {
			if f.Kind == vm.FaultCancelled {
				if s.ctx.Err() != nil {
					v.Interrupted = true
					return v, nil
				}
				v.Pass, v.Failure, v.Fault = false, FailTimeout, f
				return v, nil
			}
			v.Pass, v.Failure, v.Fault = false, FailTrap, f
			return v, nil
		}
		if ao.out.pass {
			if confirming {
				// The confirmation run disagrees with the failing verdict:
				// the verifier is nondeterministic. Accept the pass — a
				// spurious fail would shrink the final configuration.
				v.Nondet = true
			}
			v.Pass, v.Failure = true, FailNone
			return v, nil
		}
		if budget > 0 && !confirming && !s.noConfirm {
			// Failing verdict: spend one retry confirming it before
			// settling, healing injected flaky verdicts and surfacing
			// genuinely nondeterministic verifiers.
			budget--
			v.Retried++
			confirming = true
			continue
		}
		v.Pass, v.Failure = false, FailVerify
		return v, nil
	}
}
