package search

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"fpmix/internal/prog"
)

// journalMagic heads every checkpoint file, followed by the structured
// fingerprint of the search being journaled. Resume refuses a journal
// whose fingerprint does not match — verdicts are only replayable into
// the same search — and reports which field diverged.
const journalMagic = "fpmix-checkpoint v2"

// Fingerprint ties a journal (and, via its Image field, a shared
// verdict-cache scope) to the exact search it belongs to.
type Fingerprint struct {
	// Image identifies the program under search: the hex digest of its
	// serialized module image (ModuleFingerprint). Empty is permitted
	// for callers that cannot serialize the module; it is recorded as
	// "-" and still must match on resume.
	Image string
	// Options identifies the search shape — benchmark, class,
	// granularity, anything that changes the queue trajectory.
	Options string
}

// String renders the fingerprint as it appears in the journal header.
func (fp Fingerprint) String() string {
	img := fp.Image
	if img == "" {
		img = "-"
	}
	return fmt.Sprintf("image=%s opts=%s", img, fp.Options)
}

// ModuleFingerprint digests a module's serialized image — the Image
// field of a journal fingerprint and the scope key of the shared
// cross-job verdict cache (internal/jobs).
func ModuleFingerprint(m *prog.Module) (string, error) {
	img, err := prog.Save(m)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(img)
	return hex.EncodeToString(sum[:]), nil
}

// Journal is an append-only checkpoint of settled evaluation verdicts.
// Each evaluated piece appends one line — the hex image of its address
// set key and its verdict — as it settles, so a search killed at any
// point leaves a journal of everything it decided. Resuming replays
// those verdicts (Provenance ProvCheckpoint) instead of re-evaluating:
// the queue trajectory is deterministic given the verdicts, so the
// resumed search reaches a final configuration byte-identical to an
// uninterrupted run's.
//
// Durability: the file is opened O_APPEND (each line is one atomic
// append, even with concurrent writers) and fsynced at write-batch
// boundaries — the search calls Sync whenever every launched evaluation
// has settled, and Close syncs a final time. Between syncs a crash can
// lose at most the current batch (and possibly tear its final line,
// which resume truncates away); it can never corrupt earlier batches.
//
// Only verdicts the search derived itself — evaluated and proved — are
// journaled. Pruned, predicted, memo and cache verdicts are re-derived
// on resume (they are deterministic and cheap), and the final-union
// evaluation is re-run so a resumed search re-checks composition.
type Journal struct {
	mu      sync.Mutex
	f       *os.File
	prior   map[string]journalVerdict
	pending int // appends since the last fsync

	// groupCommit, when positive, rate-limits Sync to one fsync per
	// window; lastSync is when the file was last made durable.
	groupCommit time.Duration
	lastSync    time.Time
}

// journalVerdict is one replayable journal line: the verdict plus its
// fork provenance (how the interrupted search obtained it).
type journalVerdict struct {
	pass        bool
	forked      bool
	prefixSaved uint64
	// proved marks a verdict settled by the static error-bound prover;
	// a resumed search replays it as ProvProved instead of re-deriving
	// the proof.
	proved bool
}

// NewJournal creates (or truncates) a checkpoint at path for a search
// with the given fingerprint.
func NewJournal(path string, fp Fingerprint) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := fmt.Fprintf(f, "%s %s\n", journalMagic, fp); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		// The header must be durable before any verdict is: a journal
		// whose header was lost is indistinguishable from garbage.
		f.Close()
		return nil, err
	}
	return &Journal{f: f, prior: make(map[string]journalVerdict)}, nil
}

// ResumeJournal opens an existing checkpoint, validates its fingerprint
// field by field, loads every complete verdict line, and truncates a
// partial trailing line (the write the dying process did not finish).
// The journal is then ready for both replay and further appends.
func ResumeJournal(path string, fp Fingerprint) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReader(f)
	header, err := br.ReadString('\n')
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("search: checkpoint %s: unreadable header: %w", path, err)
	}
	if err := matchFingerprint(path, strings.TrimSuffix(header, "\n"), fp); err != nil {
		f.Close()
		return nil, err
	}
	prior := make(map[string]journalVerdict)
	good := int64(len(header)) // offset past the last complete, valid line
	for {
		line, err := br.ReadString('\n')
		if err != nil || !strings.HasSuffix(line, "\n") {
			break // EOF or a torn final write: truncate it away
		}
		fields := strings.Fields(strings.TrimSuffix(line, "\n"))
		if len(fields) < 2 || (fields[1] != "pass" && fields[1] != "fail") {
			break
		}
		key, err := hex.DecodeString(fields[0])
		if err != nil {
			break
		}
		jv := journalVerdict{pass: fields[1] == "pass"}
		// Optional provenance written by fork-point searches: lines from
		// older journals simply lack it.
		bad := false
		for _, f := range fields[2:] {
			if f == "proved" {
				jv.proved = true
				continue
			}
			n, cerr := fmt.Sscanf(f, "forked=%d", &jv.prefixSaved)
			if cerr != nil || n != 1 {
				bad = true
				break
			}
			jv.forked = true
		}
		if bad {
			break
		}
		prior[string(key)] = jv
		good += int64(len(line))
	}
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, err
	}
	return &Journal{f: f, prior: prior}, nil
}

// matchFingerprint validates a journal header against the resuming
// search's fingerprint and, on mismatch, reports which field diverged —
// the image hash (a different program) or the option set (a different
// search shape over the same program).
func matchFingerprint(path, header string, fp Fingerprint) error {
	rest, ok := strings.CutPrefix(header, journalMagic+" ")
	if !ok {
		return fmt.Errorf("search: checkpoint %s: header %q is not a %q journal",
			path, header, journalMagic)
	}
	rest, ok = strings.CutPrefix(rest, "image=")
	if !ok {
		return fmt.Errorf("search: checkpoint %s: malformed header %q", path, header)
	}
	img, opts, ok := strings.Cut(rest, " opts=")
	if !ok {
		return fmt.Errorf("search: checkpoint %s: malformed header %q", path, header)
	}
	wantImg := fp.Image
	if wantImg == "" {
		wantImg = "-"
	}
	if img != wantImg {
		return fmt.Errorf("search: checkpoint %s: image fingerprint diverged: journal was written for image %s, this search analyzes image %s (the program under search changed)",
			path, img, wantImg)
	}
	if opts != fp.Options {
		return fmt.Errorf("search: checkpoint %s: option set diverged: journal was written with %q, this search runs with %q (same program, different search shape)",
			path, opts, fp.Options)
	}
	return nil
}

// Prior is the number of verdicts loaded from an existing checkpoint.
func (j *Journal) Prior() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.prior)
}

// Sync fsyncs any verdicts appended since the last sync. The search
// calls it at write-batch boundaries (whenever every launched
// evaluation has settled); callers holding a journal the search never
// reached need not bother — Close syncs too. Under SetGroupCommit a
// call landing inside the commit window returns immediately with the
// appends still buffered.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.groupCommit > 0 && j.pending > 0 && time.Since(j.lastSync) < j.groupCommit {
		return nil
	}
	return j.syncLocked()
}

// SetGroupCommit rate-limits Sync to one fsync per window d (zero
// restores sync-every-call). During a search's sequential descent every
// settled verdict is a write-batch boundary, so an eager journal
// serializes an fsync into every unit; the journal is a cache of
// deterministic verdicts, so a crash inside the window only re-runs the
// last window's units on resume. Daemons trade that bounded
// recomputation for not stalling the settle loop. Close still always
// syncs.
func (j *Journal) SetGroupCommit(d time.Duration) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.groupCommit = d
}

func (j *Journal) syncLocked() error {
	if j.f == nil || j.pending == 0 {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.pending = 0
	j.lastSync = time.Now()
	return nil
}

// Close syncs and releases the journal file. The search never closes
// the journal it was handed; the submitting caller does.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	serr := j.syncLocked()
	err := j.f.Close()
	j.f = nil
	if err == nil {
		err = serr
	}
	return err
}

// lookup replays a verdict journaled by a prior process (loaded at
// ResumeJournal). Verdicts recorded in the current run are deliberately
// not consulted: in-run duplicates are the memo table's job, so Resumed
// counts exactly the work inherited from the interrupted search.
func (j *Journal) lookup(key string) (jv journalVerdict, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	jv, ok = j.prior[key]
	return jv, ok
}

// record appends one settled verdict (one atomic O_APPEND write; the
// fsync waits for the batch boundary). Fork-point verdicts append their
// provenance ("forked=<prefix steps saved>") so a resumed search
// reports the inherited work faithfully, and prover verdicts a "proved"
// token so it replays the proof instead of re-deriving it; readers that
// predate either field treat such lines as torn and stop there.
func (j *Journal) record(key string, jv journalVerdict) error {
	verdict := "fail"
	if jv.pass {
		verdict = "pass"
	}
	line := hex.EncodeToString([]byte(key)) + " " + verdict
	switch {
	case jv.proved:
		line += " proved"
	case jv.forked:
		line += fmt.Sprintf(" forked=%d", jv.prefixSaved)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	_, err := j.f.WriteString(line + "\n")
	if err == nil {
		j.pending++
	}
	return err
}
