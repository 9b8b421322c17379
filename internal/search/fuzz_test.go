package search

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzResumeJournal feeds arbitrary bytes to the checkpoint loader.
// Three properties: no file content makes ResumeJournal panic; a journal
// it resumes is cut exactly before its first bad complete line (or torn
// tail), every line after that dropped; and the next recorded verdict
// survives a reopen. The committed corpus covers a header-only journal,
// a torn final line, forked= and proved lines, a bad token mid-file, a
// foreign header and a fingerprint mismatch.
func FuzzResumeJournal(f *testing.F) {
	fp := Fingerprint{Image: "cafe", Options: "fuzz gran=insn"}
	f.Fuzz(func(t *testing.T, data []byte, key string) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := ResumeJournal(path, fp)
		if err != nil {
			return // a foreign, torn or mismatched header is rejected
		}
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, kept) || !bytes.HasSuffix(kept, []byte("\n")) {
			t.Fatalf("resume left %q, not a line-ended prefix of %q", kept, data)
		}
		if rest := data[len(kept):]; bytes.IndexByte(rest, '\n') >= 0 {
			// The cut is before a complete line: the journal must
			// reject that line on its own.
			header := kept[:bytes.IndexByte(kept, '\n')+1]
			line := rest[:bytes.IndexByte(rest, '\n')+1]
			lone := filepath.Join(dir, "lone.ckpt")
			if err := os.WriteFile(lone, append(bytes.Clone(header), line...), 0o644); err != nil {
				t.Fatal(err)
			}
			lj, err := ResumeJournal(lone, fp)
			if err != nil {
				t.Fatal(err)
			}
			if lj.Prior() != 0 {
				t.Fatalf("resume cut before %q, which loads on its own", line)
			}
			lj.Close()
		}

		if key == "" {
			// Out of the format's domain: lines split on whitespace, so an
			// empty hex key cannot be read back. No journaled key is
			// empty — buildPiece drops pieces without addresses.
			j.Close()
			return
		}
		want := journalVerdict{pass: len(data)%2 == 0}
		switch len(key) % 3 {
		case 1:
			want.forked, want.prefixSaved = true, uint64(len(data))
		case 2:
			want.proved = true
		}
		if err := j.record(key, want); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j2, err := ResumeJournal(path, fp)
		if err != nil {
			t.Fatalf("resuming a journal this package wrote: %v", err)
		}
		defer j2.Close()
		if got, ok := j2.lookup(key); !ok || got != want {
			t.Fatalf("recorded %+v, resumed %+v (found %v)", want, got, ok)
		}
	})
}
