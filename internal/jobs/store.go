package jobs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"fpmix/internal/search"
)

// Job is one stored search job: its spec, lifecycle state, fingerprint
// and timestamps. Store methods hand out copies — the store's own
// record only changes through Update, which persists every transition.
type Job struct {
	ID   string `json:"id"`
	Name string `json:"name"` // workload label, e.g. "ep.W"
	Spec Spec   `json:"spec"`

	State State  `json:"state"`
	Error string `json:"error,omitempty"`

	// Image and Options are the journal fingerprint fields (Image also
	// scopes the shared verdict cache). Recorded at creation so a
	// restarted server validates resumability without rebuilding the
	// target first.
	Image   string `json:"image,omitempty"`
	Options string `json:"options,omitempty"`

	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitempty"`
	Finished time.Time `json:"finished,omitempty"`

	// Recovered counts server restarts this job survived while running
	// (each recovery re-queues it; the journal carries the settled work).
	Recovered int `json:"recovered,omitempty"`
}

// Fingerprint reassembles the job's journal fingerprint.
func (j *Job) Fingerprint() search.Fingerprint {
	return search.Fingerprint{Image: j.Image, Options: j.Options}
}

// Store is the durable job store: one directory per job under root,
// each holding job.json (spec + state), the job's checkpoint journal,
// and on completion the final configuration and summary. Opening a
// store recovers jobs a dead server left running — they re-queue, and
// their journals replay the work already settled.
type Store struct {
	mu   sync.Mutex
	dir  string
	jobs map[string]*Job
	seq  int
	// recovered lists the IDs re-queued at open, for the server to
	// relaunch.
	recovered []string
}

// Open loads (or initializes) a job store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st := &Store{dir: dir, jobs: make(map[string]*Job)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		var j Job
		data, err := os.ReadFile(filepath.Join(dir, e.Name(), "job.json"))
		if err != nil {
			continue // not a job dir (e.g. the cache dir)
		}
		if err := json.Unmarshal(data, &j); err != nil {
			return nil, fmt.Errorf("jobs: corrupt record %s: %w", e.Name(), err)
		}
		if j.ID != e.Name() {
			return nil, fmt.Errorf("jobs: record %s claims ID %s", e.Name(), j.ID)
		}
		var seq int
		if _, err := fmt.Sscanf(j.ID, "j%d", &seq); err == nil && seq > st.seq {
			st.seq = seq
		}
		if j.State == StateRunning {
			// The server died mid-run: re-queue. The journal in the job
			// dir carries every verdict that settled before the death, so
			// the relaunched search resumes instead of restarting.
			j.State = StateQueued
			j.Recovered++
			if err := st.persist(&j); err != nil {
				return nil, err
			}
			st.recovered = append(st.recovered, j.ID)
		}
		st.jobs[j.ID] = &j
	}
	sort.Strings(st.recovered)
	return st, nil
}

// Dir returns the store root.
func (s *Store) Dir() string { return s.dir }

// Recovered lists the jobs re-queued at open (running when the previous
// server died), in ID order.
func (s *Store) Recovered() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.recovered...)
}

// Create validates the spec, assigns an ID and persists the job in
// state queued. The fingerprint is recorded immediately so restarts can
// validate the journal without rebuilding the target.
func (s *Store) Create(spec Spec) (Job, error) {
	j, _, err := s.CreateBuilt(spec)
	return j, err
}

// CreateBuilt is Create that also hands back the target it built to
// fingerprint the job, so the caller can run the job without building
// it a second time.
func (s *Store) CreateBuilt(spec Spec) (Job, Built, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return Job{}, Built{}, err
	}
	t, sensTol, err := spec.Build()
	if err != nil {
		return Job{}, Built{}, err
	}
	fp, err := spec.Fingerprint(t.Module)
	if err != nil {
		return Job{}, Built{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	j := &Job{
		ID:      fmt.Sprintf("j%04d", s.seq),
		Name:    spec.Name(),
		Spec:    spec,
		State:   StateQueued,
		Image:   fp.Image,
		Options: fp.Options,
		Created: time.Now().UTC(),
	}
	if err := os.MkdirAll(filepath.Join(s.dir, j.ID), 0o755); err != nil {
		return Job{}, Built{}, err
	}
	if err := s.persist(j); err != nil {
		return Job{}, Built{}, err
	}
	s.jobs[j.ID] = j
	return *j, Built{Target: t, SensTol: sensTol}, nil
}

// Get returns a copy of the job.
func (s *Store) Get(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// List returns copies of every job, in ID order.
func (s *Store) List() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, *j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Transition moves a job along a legal state-machine edge and persists
// the new state. errmsg annotates a failure; Started/Finished stamp
// automatically.
func (s *Store) Transition(id string, to State, errmsg string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("jobs: no job %s", id)
	}
	if !canTransition(j.State, to) {
		return fmt.Errorf("jobs: job %s: illegal transition %s → %s", id, j.State, to)
	}
	j.State = to
	j.Error = errmsg
	now := time.Now().UTC()
	switch to {
	case StateRunning:
		j.Started = now
	case StateDone, StateFailed, StateCancelled:
		j.Finished = now
	}
	return s.persist(j)
}

// Requeue puts a running job back to queued without counting it as a
// request transition — the graceful-shutdown edge (the server stops,
// the job's journal keeps its work, the next server resumes it).
func (s *Store) Requeue(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("jobs: no job %s", id)
	}
	if j.State != StateRunning {
		return nil
	}
	j.State = StateQueued
	j.Recovered++
	return s.persist(j)
}

// persist writes the job record atomically (write-temp + rename), so a
// crash never leaves a half-written job.json. Callers hold s.mu.
func (s *Store) persist(j *Job) error {
	data, err := json.MarshalIndent(j, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Join(s.dir, j.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp := filepath.Join(dir, ".job.json.tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, "job.json"))
}

// JournalPath, ResultPath and SummaryPath locate a job's artifacts.
func (s *Store) JournalPath(id string) string {
	return filepath.Join(s.dir, id, "journal.ckpt")
}
func (s *Store) ResultPath(id string) string {
	return filepath.Join(s.dir, id, "result.cfg")
}
func (s *Store) SummaryPath(id string) string {
	return filepath.Join(s.dir, id, "summary.json")
}

// OpenJournal opens the job's checkpoint journal: fresh for a new job,
// resumed (fingerprint-validated, torn tail truncated) when a previous
// server incarnation already journaled verdicts. resumed reports how
// many settled verdicts the journal carries forward.
func (s *Store) OpenJournal(id string, fp search.Fingerprint) (j *search.Journal, resumed int, err error) {
	path := s.JournalPath(id)
	if _, serr := os.Stat(path); serr == nil {
		jr, err := search.ResumeJournal(path, fp)
		if err != nil {
			return nil, 0, err
		}
		return jr, jr.Prior(), nil
	}
	jr, err := search.NewJournal(path, fp)
	if err != nil {
		return nil, 0, err
	}
	return jr, 0, nil
}
