package search

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

// firstLookup is a VerdictCache that remembers the first key looked up:
// on a one-worker search over a program with no gated or pruned root,
// that is the root piece's unit key.
type firstLookup struct {
	mapCache
	first string
}

func (c *firstLookup) Lookup(key string) (CachedVerdict, bool) {
	if c.first == "" {
		c.first = key
	}
	return c.mapCache.Lookup(key)
}

// TestVerdictChainPrecedence pins which stage settles a piece whose
// verdict several stages could replay, and which counters that moves.
// The root of mixedProgram is seeded as passing in a resumed journal, in
// the shared cache, or in both, so the search ends after the root and
// the only run is the final union.
func TestVerdictChainPrecedence(t *testing.T) {
	m := mixedProgram(t)
	tgt := Target{Module: m, Verify: refVerify(t, m, 1e-10)}
	probe := &firstLookup{mapCache: mapCache{m: map[string]CachedVerdict{}}}
	if _, err := Run(tgt, Options{Workers: 1, Cache: probe}); err != nil {
		t.Fatal(err)
	}
	root := probe.first
	if root == "" {
		t.Fatal("search looked up no verdict in the cache")
	}

	rows := []struct {
		name    string
		journal string         // the root's journal verdict tokens ("" = not journaled)
		cache   *CachedVerdict // the root's cache entry (nil = not cached)
		prov    Provenance

		resumed, cacheHits, memoHits, proved int
	}{
		// The job's own prior work is Resumed, never cache service.
		{"journal and cache", "pass", &CachedVerdict{Pass: false}, ProvCheckpoint, 1, 0, 0, 0},
		{"proved cache", "", &CachedVerdict{Pass: true, Proved: true}, ProvProved, 0, 1, 0, 1},
		{"plain cache", "", &CachedVerdict{Pass: true}, ProvMemo, 0, 1, 1, 0},
		// A proved journal line replays the proof: the analysis never starts.
		{"proved journal", "pass proved", nil, ProvProved, 1, 0, 0, 1},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var calls atomic.Int32
			opts := Options{Workers: 1, testAnalyze: analyzeHook(0, &calls)}
			if row.cache != nil {
				opts.Cache = &mapCache{m: map[string]CachedVerdict{root: *row.cache}}
			}
			if row.journal != "" {
				fp := Fingerprint{Options: "precedence"}
				path := filepath.Join(t.TempDir(), "root.ckpt")
				data := journalMagic + " " + fp.String() + "\n" +
					hex.EncodeToString([]byte(root)) + " " + row.journal + "\n"
				if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
					t.Fatal(err)
				}
				jr, err := ResumeJournal(path, fp)
				if err != nil {
					t.Fatal(err)
				}
				defer jr.Close()
				opts.Checkpoint = jr
			}
			res, err := Run(tgt, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Evals) != 2 {
				t.Fatalf("%d Evals, want the root and the final union", len(res.Evals))
			}
			if ev := res.Evals[0]; ev.Prov != row.prov || !ev.Pass {
				t.Errorf("root settled %v pass=%v, want %v pass=true", ev.Prov, ev.Pass, row.prov)
			}
			got := [5]int{res.Resumed, res.CacheHits, res.MemoHits, res.Proved, res.Tested}
			want := [5]int{row.resumed, row.cacheHits, row.memoHits, row.proved, 1}
			if got != want {
				t.Errorf("resumed/cache/memo/proved/tested = %v, want %v", got, want)
			}
			if n := calls.Load(); n != 0 {
				t.Errorf("the analysis ran %d times though no piece reached the prover", n)
			}
		})
	}
}

// TestCheckpointWriteErrorCountsRecordedOnly: when the journal write of
// a settled verdict fails, the search stops with the error, and its
// partial Result counts only the verdicts it recorded.
func TestCheckpointWriteErrorCountsRecordedOnly(t *testing.T) {
	m := mixedProgram(t)
	tgt := Target{Module: m, Verify: refVerify(t, m, 1e-10)}
	for _, noProve := range []bool{true, false} {
		jr, err := NewJournal(filepath.Join(t.TempDir(), "closed.ckpt"), Fingerprint{})
		if err != nil {
			t.Fatal(err)
		}
		jr.Close() // every later write fails
		res, err := Run(tgt, Options{Workers: 1, NoProve: noProve, Checkpoint: jr})
		if err == nil || !strings.Contains(err.Error(), "checkpoint write") {
			t.Fatalf("noprove=%v: err = %v, want a checkpoint write error", noProve, err)
		}
		evaluated, proved := 0, 0
		for _, ev := range res.Evals {
			switch ev.Prov {
			case ProvEvaluated:
				evaluated++
			case ProvProved:
				proved++
			}
		}
		if res.Tested != evaluated || res.Proved != proved {
			t.Errorf("noprove=%v: tested %d, proved %d, but %d evaluated and %d proved Evals",
				noProve, res.Tested, res.Proved, evaluated, proved)
		}
	}
}

// TestFinalUnionCached: the final-union verdict is stored in the shared
// cache under its own key, apart from every piece key, and a warm search
// replays it as a memo verdict instead of running the union again.
func TestFinalUnionCached(t *testing.T) {
	m := mixedProgram(t)
	tgt := Target{Module: m, Verify: refVerify(t, m, 1e-10)}
	cache := &mapCache{m: map[string]CachedVerdict{}}
	opts := Options{Workers: 1, Cache: cache}
	cold, err := Run(tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	finals := 0
	for key, v := range cache.m {
		if !strings.HasPrefix(key, "final\x00") {
			continue
		}
		finals++
		if len(key)%8 == 0 {
			t.Errorf("final-union key of %d bytes could equal a piece key", len(key))
		}
		if v.Pass != cold.FinalPass || v.Proved {
			t.Errorf("cached final union %+v, want pass=%v unproved", v, cold.FinalPass)
		}
	}
	if finals != 1 {
		t.Fatalf("%d final-union cache entries, want 1", finals)
	}
	warm, err := Run(tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	last := warm.Evals[len(warm.Evals)-1]
	if last.Label != "final union" || last.Prov != ProvMemo || last.Pass != cold.FinalPass {
		t.Errorf("warm final Eval %s %v pass=%v, want final union memo pass=%v", last.Label, last.Prov, last.Pass, cold.FinalPass)
	}
	if warm.Tested != 0 || warm.FinalPass != cold.FinalPass || warm.Final.String() != cold.Final.String() {
		t.Errorf("warm search: tested %d, final pass %v (want 0, %v), final identical %v",
			warm.Tested, warm.FinalPass, cold.FinalPass, warm.Final.String() == cold.Final.String())
	}
	if got, want := warm.Tested+warm.MemoHits+warm.Proved, cold.Tested+cold.MemoHits+cold.Proved; got != want {
		t.Errorf("warm tested+memo+proved = %d, cold = %d", got, want)
	}
}
