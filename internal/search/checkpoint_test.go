package search

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestJournalConcurrentWriters checks the journal under concurrent
// recorders and readers (run with -race): every line written by any
// goroutine must survive intact — O_APPEND makes each line one atomic
// append — and a resume must load all of them.
func TestJournalConcurrentWriters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "conc.ckpt")
	fp := Fingerprint{Image: "cafe", Options: "conc gran=insn"}
	j, err := NewJournal(path, fp)
	if err != nil {
		t.Fatal(err)
	}

	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("w%02d-%03d", w, i)
				var err error
				switch i % 3 {
				case 0:
					err = j.record(key, journalVerdict{pass: true})
				case 1:
					err = j.record(key, journalVerdict{pass: false, forked: true, prefixSaved: uint64(i)})
				default:
					err = j.record(key, journalVerdict{pass: true, proved: true})
				}
				if err != nil {
					t.Errorf("record %s: %v", key, err)
				}
				if i%16 == 0 {
					if err := j.Sync(); err != nil {
						t.Errorf("sync: %v", err)
					}
				}
			}
		}(w)
	}
	// Concurrent readers: lookup and Prior must be safe while writers run.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				j.lookup(fmt.Sprintf("w%02d-%03d", i%writers, i%perWriter))
				j.Prior()
			}
		}()
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := ResumeJournal(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got, want := re.Prior(), writers*perWriter; got != want {
		t.Errorf("resume loaded %d verdicts, want %d", got, want)
	}
	// Spot-check each record class survived with its provenance.
	if jv, ok := re.lookup("w00-000"); !ok || !jv.pass || jv.forked || jv.proved {
		t.Errorf("plain pass verdict corrupted: %+v ok=%v", jv, ok)
	}
	if jv, ok := re.lookup("w00-001"); !ok || jv.pass || !jv.forked || jv.prefixSaved != 1 {
		t.Errorf("forked fail verdict corrupted: %+v ok=%v", jv, ok)
	}
	if jv, ok := re.lookup("w00-002"); !ok || !jv.pass || !jv.proved {
		t.Errorf("proved verdict corrupted: %+v ok=%v", jv, ok)
	}
}

// TestJournalTornLineConcurrent writes concurrently, tears the final
// line as a crashing process would, and checks resume truncates exactly
// the torn tail: every complete line replays, the torn one is gone, and
// appending after resume keeps working.
func TestJournalTornLineConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.ckpt")
	fp := Fingerprint{Image: "beef", Options: "torn"}
	j, err := NewJournal(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const writers, perWriter = 4, 25
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := j.record(fmt.Sprintf("t%02d-%03d", w, i), journalVerdict{pass: i%2 == 0}); err != nil {
					t.Errorf("record: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: a partial line with no newline, as a crash mid-write
	// leaves behind.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("deadbeef pa"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := ResumeJournal(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := re.Prior(), writers*perWriter; got != want {
		t.Errorf("resume after tear loaded %d verdicts, want %d", got, want)
	}
	if err := re.record("post-resume", journalVerdict{pass: true}); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "deadbeef") {
		t.Error("torn line survived the resume truncation")
	}
	if !strings.HasSuffix(string(data), "\n") {
		t.Error("journal does not end on a line boundary after post-resume append")
	}
	// The post-resume append must itself be a valid, replayable line.
	re2, err := ResumeJournal(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if got, want := re2.Prior(), writers*perWriter+1; got != want {
		t.Errorf("second resume loaded %d verdicts, want %d", got, want)
	}
}

// TestJournalFingerprintFieldDiagnosis checks a resume mismatch names
// the diverging field: the image digest when the program changed, the
// option set when the search shape did.
func TestJournalFingerprintFieldDiagnosis(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fp.ckpt")
	fp := Fingerprint{Image: "aaaa", Options: "ep.W gran=insn"}
	j, err := NewJournal(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.record("k", journalVerdict{pass: true}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	_, err = ResumeJournal(path, Fingerprint{Image: "bbbb", Options: "ep.W gran=insn"})
	if err == nil || !strings.Contains(err.Error(), "image fingerprint diverged") {
		t.Errorf("image mismatch not diagnosed: %v", err)
	}
	_, err = ResumeJournal(path, Fingerprint{Image: "aaaa", Options: "ep.W gran=block"})
	if err == nil || !strings.Contains(err.Error(), "option set diverged") {
		t.Errorf("option-set mismatch not diagnosed: %v", err)
	}
	if re, err := ResumeJournal(path, fp); err != nil {
		t.Errorf("matching fingerprint refused: %v", err)
	} else {
		re.Close()
	}

	// An empty image field is recorded as "-" and must round-trip.
	path2 := filepath.Join(t.TempDir(), "noimg.ckpt")
	j2, err := NewJournal(path2, Fingerprint{Options: "bare"})
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()
	if re, err := ResumeJournal(path2, Fingerprint{Options: "bare"}); err != nil {
		t.Errorf("empty-image fingerprint does not round-trip: %v", err)
	} else {
		re.Close()
	}
}
