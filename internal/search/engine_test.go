package search

import (
	"errors"
	"sync"
	"testing"

	"fpmix/internal/hl"
	"fpmix/internal/kernels"
	"fpmix/internal/prog"
)

// singleFuncProgram builds a precision-sensitive program whose candidates
// all live in one function, so the module piece and the function piece
// carry identical address sets (the duplicate chain the memo table
// targets).
func singleFuncProgram(t *testing.T) *prog.Module {
	t.Helper()
	p := hl.New("onefunc", hl.ModeF64)
	tiny := p.Scalar("tiny")
	i := p.Int("i")
	main := p.Func("main")
	main.Set(tiny, hl.Const(1.0))
	main.For(i, hl.IConst(0), hl.IConst(200), func() {
		main.Set(tiny, hl.Add(hl.Load(tiny), hl.Const(1e-9)))
	})
	main.Out(hl.Load(tiny))
	main.Halt()
	m, err := p.Build("main")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// passingSets summarizes a result's passing pieces as a set of address
// keys for order-independent comparison.
func passingSets(res *Result) map[string]bool {
	set := make(map[string]bool, len(res.Passing))
	for _, p := range res.Passing {
		set[addrKey(p.Addrs)] = true
	}
	return set
}

// TestEngineMatchesFallback runs the full search on real kernels with the
// default engine and with the from-scratch fallback and requires identical
// outcomes: same candidates, same passing pieces, same final verdict and
// statistics, and an evaluation count that differs only by the memoized
// duplicates the engine replays.
func TestEngineMatchesFallback(t *testing.T) {
	for _, name := range []string{"cg", "mg"} {
		t.Run(name, func(t *testing.T) {
			bench, err := kernels.Get(name, kernels.ClassW)
			if err != nil {
				t.Fatal(err)
			}
			tgt := Target{
				Module:   bench.Module,
				Verify:   bench.Verify,
				MaxSteps: bench.MaxSteps,
				Base:     bench.Base,
			}
			run := func(mode EngineMode) *Result {
				res, err := Run(tgt, Options{
					Workers:     4,
					BinarySplit: true,
					Prioritize:  true,
					Engine:      mode,
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			on, off := run(EngineFork), run(EngineOff)

			if off.MemoHits != 0 {
				t.Errorf("fallback counted %d memo hits", off.MemoHits)
			}
			if on.Tested+on.MemoHits != off.Tested {
				t.Errorf("tested+memo mismatch: engine %d+%d, fallback %d",
					on.Tested, on.MemoHits, off.Tested)
			}
			if on.Candidates != off.Candidates {
				t.Errorf("candidates differ: %d vs %d", on.Candidates, off.Candidates)
			}
			if on.FinalPass != off.FinalPass {
				t.Errorf("final verdict differs: %v vs %v", on.FinalPass, off.FinalPass)
			}
			if on.Stats != off.Stats {
				t.Errorf("stats differ: %+v vs %+v", on.Stats, off.Stats)
			}
			onSets, offSets := passingSets(on), passingSets(off)
			if len(onSets) != len(offSets) {
				t.Fatalf("passing piece counts differ: %d vs %d",
					len(on.Passing), len(off.Passing))
			}
			for k := range offSets {
				if !onSets[k] {
					t.Error("fallback passing piece missing from engine result")
				}
			}
		})
	}
}

// TestSearchMemoHitsCounted forces the module→func duplicate chain and
// checks the default engine replays it from the memo table while the fallback
// re-evaluates it, with identical search outcomes.
func TestSearchMemoHitsCounted(t *testing.T) {
	m := singleFuncProgram(t)
	v := refVerify(t, m, 1e-10)
	on, err := Run(Target{Module: m, Verify: v}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	off, err := Run(Target{Module: m, Verify: v}, Options{Engine: EngineOff})
	if err != nil {
		t.Fatal(err)
	}
	if on.MemoHits == 0 {
		t.Error("engine replayed no duplicates on a single-function module")
	}
	if off.MemoHits != 0 {
		t.Errorf("fallback counted %d memo hits", off.MemoHits)
	}
	if on.Tested+on.MemoHits != off.Tested {
		t.Errorf("tested+memo mismatch: engine %d+%d, fallback %d",
			on.Tested, on.MemoHits, off.Tested)
	}
	if on.FinalPass != off.FinalPass || on.Stats != off.Stats {
		t.Error("engine and fallback disagree on the search outcome")
	}
}

var errEvalBoom = errors.New("scripted evaluation failure")

// scriptedEval passes/fails/errors on a fixed schedule, independent of
// the configuration content.
type scriptedEval struct {
	mu      sync.Mutex
	n       int
	verdict []func() (bool, error)
}

func (s *scriptedEval) evaluate(evalRequest) (outcome, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n >= len(s.verdict) {
		return outcome{}, errEvalBoom
	}
	v := s.verdict[s.n]
	s.n++
	pass, err := v()
	return outcome{pass: pass}, err
}

// TestRunPartialResultOnError drives Run into an evaluation error after a
// piece has already passed, and checks the partial result retains that
// piece and the counters while Final stays unset.
func TestRunPartialResultOnError(t *testing.T) {
	m := mixedProgram(t)
	v := refVerify(t, m, 1e-10)
	stub := &scriptedEval{verdict: []func() (bool, error){
		func() (bool, error) { return false, nil }, // module fails, expands
		func() (bool, error) { return true, nil },  // first child passes
		func() (bool, error) { return false, errEvalBoom },
	}}
	res, err := Run(Target{Module: m, Verify: v}, Options{Workers: 1, testEval: stub})
	if !errors.Is(err, errEvalBoom) {
		t.Fatalf("expected scripted error, got %v", err)
	}
	if res == nil {
		t.Fatal("error drain discarded the partial result")
	}
	if res.Tested != 2 {
		t.Errorf("partial result counted %d tested, want 2", res.Tested)
	}
	if len(res.Passing) != 1 {
		t.Fatalf("partial result retained %d passing pieces, want 1", len(res.Passing))
	}
	if res.Final != nil {
		t.Error("partial result must not carry a final configuration")
	}
}

// TestPieceQueuePopReleasesSlot checks Pop clears the vacated backing
// slot so popped pieces are not pinned by the queue's array.
func TestPieceQueuePopReleasesSlot(t *testing.T) {
	q := &pieceQueue{}
	for i := 0; i < 3; i++ {
		q.Push(&Piece{Addrs: []uint64{uint64(i)}})
	}
	if it := q.Pop(); it == nil {
		t.Fatal("Pop returned nil piece")
	}
	if got := q.items[:3][2]; got != nil {
		t.Errorf("Pop left the vacated slot populated: %v", got)
	}
}
