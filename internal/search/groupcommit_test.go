package search

import (
	"path/filepath"
	"testing"
	"time"
)

// TestJournalGroupCommit: under SetGroupCommit a Sync landing inside
// the commit window leaves its appends buffered, a zero window restores
// sync-every-call, and Close always makes everything durable.
func TestJournalGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	fp := Fingerprint{Options: "gc-test"}
	j, err := NewJournal(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	pending := func() int {
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.pending
	}

	// Prime lastSync so the next Sync lands inside the window.
	if err := j.record("k0", journalVerdict{pass: true}); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	j.SetGroupCommit(time.Hour)
	if err := j.record("k1", journalVerdict{pass: true}); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if pending() == 0 {
		t.Fatal("Sync inside the group-commit window fsynced eagerly")
	}
	// A zero window restores sync-every-call.
	j.SetGroupCommit(0)
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := pending(); got != 0 {
		t.Fatalf("pending = %d after Sync with group commit off, want 0", got)
	}
	// Close syncs regardless of the window: every verdict must be
	// durable for a resuming search.
	j.SetGroupCommit(time.Hour)
	if err := j.record("k2", journalVerdict{}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := ResumeJournal(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Prior() != 3 {
		t.Fatalf("resumed %d verdicts, want 3", r.Prior())
	}
}
