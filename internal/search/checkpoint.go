package search

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"fpmix/internal/applog"
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
	return fmt.Sprintf("image=%s opts=%s", fp.image(), fp.Options)
}

// image is the Image field as recorded: "-" when empty.
func (fp Fingerprint) image() string {
	if fp.Image == "" {
		return "-"
	}
	return fp.Image
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
// The file is an applog line log: the search calls Sync whenever every
// launched evaluation has settled, and a torn tail is cut on resume.
//
// Only verdicts the search derived itself — evaluated and proved — are
// journaled. Pruned, predicted, memo and cache verdicts are re-derived
// on resume (they are deterministic and cheap), and the final-union
// evaluation is re-run so a resumed search re-checks composition.
type Journal struct {
	log   *applog.Log
	prior map[string]journalVerdict // loaded at resume, read-only after
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
	l, err := applog.Create(path, journalMagic+" "+fp.String())
	if err != nil {
		return nil, err
	}
	return &Journal{log: l}, nil
}

// ResumeJournal opens an existing checkpoint, validates its fingerprint
// field by field and loads every verdict line before the first one that
// does not parse. It cuts away that line, all after it and a torn final
// line, leaving the journal ready for both replay and further appends.
func ResumeJournal(path string, fp Fingerprint) (*Journal, error) {
	prior := make(map[string]journalVerdict)
	l, err := applog.Open(path, "", func(h string) error { return matchFingerprint(path, h, fp) }, func(line string) applog.Action {
		fields := strings.Fields(line)
		if len(fields) < 2 || (fields[1] != "pass" && fields[1] != "fail") {
			return applog.Stop
		}
		key, err := hex.DecodeString(fields[0])
		if err != nil {
			return applog.Stop
		}
		jv := journalVerdict{pass: fields[1] == "pass"}
		// Optional provenance written by fork-point searches: lines from
		// older journals simply lack it.
		for _, f := range fields[2:] {
			if f == "proved" {
				jv.proved = true
				continue
			}
			if n, err := fmt.Sscanf(f, "forked=%d", &jv.prefixSaved); err != nil || n != 1 {
				return applog.Stop
			}
			jv.forked = true
		}
		prior[string(key)] = jv
		return applog.Keep
	})
	if err != nil {
		return nil, err
	}
	return &Journal{log: l, prior: prior}, nil
}

// matchFingerprint validates a journal header against the resuming
// search's fingerprint and, on mismatch, reports which field diverged —
// the image hash (a different program) or the option set (a different
// search shape over the same program).
func matchFingerprint(path, header string, fp Fingerprint) error {
	rest, isJournal := strings.CutPrefix(header, journalMagic+" image=")
	img, opts, ok := strings.Cut(rest, " opts=")
	switch {
	case !isJournal || !ok:
		return fmt.Errorf("search: checkpoint %s: header %q is not a %q journal", path, header, journalMagic)
	case img != fp.image():
		return fmt.Errorf("search: checkpoint %s: image fingerprint diverged: journal was written for image %s, this search analyzes image %s (the program under search changed)", path, img, fp.image())
	case opts != fp.Options:
		return fmt.Errorf("search: checkpoint %s: option set diverged: journal was written with %q, this search runs with %q (same program, different search shape)", path, opts, fp.Options)
	}
	return nil
}

// Prior is the number of verdicts loaded from an existing checkpoint.
func (j *Journal) Prior() int { return len(j.prior) }

// Sync fsyncs any verdicts appended since the last sync; Close syncs
// too. Under SetGroupCommit a call inside the commit window returns
// with the appends still buffered.
func (j *Journal) Sync() error { return j.log.Sync() }

// SetGroupCommit rate-limits Sync to one fsync per window d (zero
// restores sync-every-call); Close still always syncs. A crash inside
// the window only re-runs that window's units on resume.
func (j *Journal) SetGroupCommit(d time.Duration) { j.log.SetGroupCommit(d) }

// Close syncs and releases the journal file. The search never closes
// the journal it was handed; the submitting caller does.
func (j *Journal) Close() error { return j.log.Close() }

// lookup replays a verdict journaled by a prior process (loaded at
// ResumeJournal). Verdicts recorded in the current run are deliberately
// not consulted: in-run duplicates are the memo table's job, so Resumed
// counts exactly the work inherited from the interrupted search.
func (j *Journal) lookup(key string) (journalVerdict, bool) {
	jv, ok := j.prior[key]
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
	_, err := j.log.Append(line)
	return err
}
