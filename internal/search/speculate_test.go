package search

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fpmix/internal/config"
	"fpmix/internal/errbound"
	"fpmix/internal/kernels"
	"fpmix/internal/prog"
	"fpmix/internal/shadow"
)

// The prover's analysis runs beside evaluation: pieces reaching the
// prover while it is pending launch speculatively and are resolved when
// their verdict arrives. These tests pin that the speculation is
// invisible — counts, finals and journals do not depend on when the
// analysis finishes — and that the analysis stays lazy.

// analyzeHook returns a prover analysis that waits delay before running
// the real one, counting its calls.
func analyzeHook(delay time.Duration, calls *atomic.Int32) func(*prog.Module) (*errbound.Analysis, error) {
	return func(m *prog.Module) (*errbound.Analysis, error) {
		calls.Add(1)
		time.Sleep(delay)
		return errbound.Analyze(m, errbound.Options{})
	}
}

// journaledRun runs the search with a fresh checkpoint journal and
// returns the result, the journal's lines sorted, and the search wall.
func journaledRun(t *testing.T, tgt Target, opts Options) (*Result, []string, time.Duration) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	jr, err := NewJournal(path, Fingerprint{Options: "speculation"})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := Run(tgt, withJournal(opts, jr))
	wall := time.Since(start)
	jr.Close()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	sort.Strings(lines)
	return res, lines, wall
}

func TestSpeculativeProverDeterministic(t *testing.T) {
	for _, name := range []string{"ep", "ft"} {
		t.Run(name, func(t *testing.T) {
			tgt := kernelTarget(t, name)
			opts := Options{Workers: 2, BinarySplit: true, Prioritize: true, Engine: EngineFork}

			var calls atomic.Int32
			opts.testAnalyze = analyzeHook(0, &calls)
			fast, fastLines, wall := journaledRun(t, tgt, opts)
			// Slower than the whole search: every piece that reaches the
			// prover before the first speculative verdict returns runs
			// speculatively, and the coordinator waits on the analysis.
			opts.testAnalyze = analyzeHook(2*wall+50*time.Millisecond, &calls)
			slow, slowLines, _ := journaledRun(t, tgt, opts)
			if n := calls.Load(); n != 2 {
				t.Errorf("analysis ran %d times over two searches, want 2", n)
			}

			if fast.Proved == 0 {
				t.Fatal("search proved nothing — speculation test has no subject")
			}
			if fast.Tested != slow.Tested || fast.Proved != slow.Proved ||
				fast.MemoHits != slow.MemoHits || fast.CacheHits != slow.CacheHits {
				t.Errorf("counts depend on analysis timing: tested/proved/memo/cache %d/%d/%d/%d vs %d/%d/%d/%d",
					fast.Tested, fast.Proved, fast.MemoHits, fast.CacheHits,
					slow.Tested, slow.Proved, slow.MemoHits, slow.CacheHits)
			}
			if fast.Final.String() != slow.Final.String() || fast.FinalPass != slow.FinalPass {
				t.Error("final configuration depends on analysis timing")
			}
			if strings.Join(fastLines, "\n") != strings.Join(slowLines, "\n") {
				t.Errorf("journal lines depend on analysis timing:\n%s\nvs\n%s",
					strings.Join(fastLines, "\n"), strings.Join(slowLines, "\n"))
			}

			off := opts
			off.NoProve = true
			off.testAnalyze = analyzeHook(0, &calls)
			base, err := Run(tgt, off)
			if err != nil {
				t.Fatal(err)
			}
			if slow.Tested+slow.Proved != base.Tested {
				t.Errorf("prover invariant broken: tested %d + proved %d != -noprove tested %d",
					slow.Tested, slow.Proved, base.Tested)
			}
			if n := calls.Load(); n != 2 {
				t.Errorf("-noprove search ran the analysis")
			}
		})
	}
}

// earlyUnits evaluates units through r, counting the piece units
// launched while the prover's analysis is pending; the third closes
// third.
type earlyUnits struct {
	r       *UnitRunner
	pending atomic.Bool
	early   atomic.Int32
	third   chan struct{}
}

func (e *earlyUnits) EvaluateUnit(u EvalUnit) (Verdict, error) {
	if !u.Final && e.pending.Load() && e.early.Add(1) == 3 {
		close(e.third)
	}
	return e.r.Evaluate(u)
}

// TestSpeculativeFailuresDoNotWaitForProver: on mg under sensitivity
// guidance the gate splits the root, both module halves launch while the
// prover's analysis is pending, and both fail verification. A failing
// clean run is never a proved piece, so the first half to fail settles
// while the other is in flight, and its children launch before the
// analysis ends: the held-back analysis waits for a third piece unit to
// launch (for at most a minute). The search still composes the final
// configuration, tested and proved counts of one whose analysis finished
// first.
func TestSpeculativeFailuresDoNotWaitForProver(t *testing.T) {
	bench, err := kernels.Get("mg", kernels.ClassW)
	if err != nil {
		t.Fatal(err)
	}
	tgt := kernelTarget(t, "mg")
	sh, err := shadow.Collect("mg.W", tgt.Module, tgt.MaxSteps)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Workers: 2, Granularity: config.KindInsn, BinarySplit: true, Prioritize: true,
		Engine: EngineFork, Shadow: sh, SensThreshold: bench.SensTol,
	}
	var calls atomic.Int32
	fast := opts
	fast.testAnalyze = analyzeHook(0, &calls)
	want, err := Run(tgt, fast)
	if err != nil {
		t.Fatal(err)
	}

	runner, err := NewUnitRunner(tgt, Options{Engine: EngineFork})
	if err != nil {
		t.Fatal(err)
	}
	units := &earlyUnits{r: runner, third: make(chan struct{})}
	units.pending.Store(true)
	var waited atomic.Bool
	slow := opts
	slow.Units = units
	slow.testAnalyze = func(m *prog.Module) (*errbound.Analysis, error) {
		select {
		case <-units.third:
		case <-time.After(time.Minute):
			waited.Store(true)
		}
		defer units.pending.Store(false)
		return errbound.Analyze(m, errbound.Options{})
	}
	got, err := Run(tgt, slow)
	if err != nil {
		t.Fatal(err)
	}
	if waited.Load() {
		t.Errorf("only %d piece units launched while the analysis was pending, want 3", units.early.Load())
	}
	if got.Final.String() != want.Final.String() || got.FinalPass != want.FinalPass {
		t.Error("final configuration depends on analysis timing")
	}
	if got.Tested != want.Tested || got.Proved != want.Proved {
		t.Errorf("tested/proved %d/%d with the analysis held back, %d/%d without",
			got.Tested, got.Proved, want.Tested, want.Proved)
	}
}

// failingUnits errors on every piece unit and evaluates the final union.
type failingUnits struct {
	r      *UnitRunner
	failed atomic.Int32
}

func (f *failingUnits) EvaluateUnit(u EvalUnit) (Verdict, error) {
	if !u.Final {
		f.failed.Add(1)
		return Verdict{}, errors.New("unit lost")
	}
	return f.r.Evaluate(u)
}

// TestSpeculativeUnitErrorOnProvedPiece: a speculative unit whose piece
// the analysis then proves settles as proved, so its evaluation error is
// discarded instead of failing the search.
func TestSpeculativeUnitErrorOnProvedPiece(t *testing.T) {
	tgt := kernelTarget(t, "ep")
	full, err := Run(tgt, Options{Workers: 2, BinarySplit: true, Prioritize: true})
	if err != nil {
		t.Fatal(err)
	}
	// Narrow the search to the sites the full search proved: its root
	// piece is then provable, and reaches the prover first.
	base, _, err := baseIgnored(tgt)
	if err != nil {
		t.Fatal(err)
	}
	base = base.Clone()
	proved := 0
	for _, a := range base.Candidates() {
		if n := full.Final.NodeAt(a); n != nil && strings.Contains(n.Note, "proved:") {
			proved++
			continue
		}
		base.NodeAt(a).Flag = config.Ignore
	}
	if proved == 0 {
		t.Fatal("ep search proved nothing — test has no subject")
	}
	tgt.Base = base
	runner, err := NewUnitRunner(tgt, Options{Engine: EngineFork})
	if err != nil {
		t.Fatal(err)
	}
	units := &failingUnits{r: runner}
	var calls atomic.Int32
	res, err := Run(tgt, Options{
		Workers: 2, BinarySplit: true, Prioritize: true, Engine: EngineFork,
		Units: units, testAnalyze: analyzeHook(100*time.Millisecond, &calls),
	})
	if err != nil {
		t.Fatalf("unit error on a proved piece failed the search: %v", err)
	}
	if units.failed.Load() == 0 {
		t.Fatal("no piece was evaluated speculatively")
	}
	if res.Proved == 0 || res.Tested != 1 {
		t.Errorf("proved %d, tested %d; want proved > 0 and only the final union tested",
			res.Proved, res.Tested)
	}
}

// mapCache is an in-memory VerdictCache.
type mapCache struct {
	mu sync.Mutex
	m  map[string]CachedVerdict
}

func (c *mapCache) Lookup(key string) (CachedVerdict, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	return v, ok
}

func (c *mapCache) Store(key string, v CachedVerdict) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = v
}

// TestProverStaysLazyOnCacheHits: a search whose every piece is served by
// the verdict cache never starts the analysis.
func TestProverStaysLazyOnCacheHits(t *testing.T) {
	tgt := kernelTarget(t, "ep")
	cache := &mapCache{m: map[string]CachedVerdict{}}
	var calls atomic.Int32
	opts := Options{
		Workers: 2, BinarySplit: true, Prioritize: true, Engine: EngineFork,
		Cache: cache, testAnalyze: analyzeHook(0, &calls),
	}
	cold, err := Run(tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("cold search ran the analysis %d times, want 1", calls.Load())
	}
	calls.Store(0)
	warm, err := Run(tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("all-cache-hit search ran the analysis %d times", n)
	}
	if warm.Tested != 0 || warm.Proved != cold.Proved || warm.Final.String() != cold.Final.String() {
		t.Errorf("warm search: tested %d (want 0, the final union cached too), proved %d (want %d), final identical %v",
			warm.Tested, warm.Proved, cold.Proved, warm.Final.String() == cold.Final.String())
	}
}
