package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (nothing inside fpmix is instrumented). Job 0 marks spans not
// tied to a job: set-up, probes and server-side HTTP handling.
type span struct {
	Name   string
	Detail string // e.g. the kernel of a job span
	Job    int
	Parent int // id of the enclosing span, 0 at the root
	Start  time.Duration
	End    time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced rounds run the same code with tracing off.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name, detail string, job, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Detail: detail, Job: job, Parent: parent, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds an already-timed span.
func (t *tracer) record(name string, job, parent int, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := start.Sub(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Job: job, Parent: parent, Start: s, End: s + d})
	t.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTime is a span's duration minus the part of its interval that its
// direct children cover (overlapping children count once).
func selfTime(spans []span, id int) time.Duration {
	p := spans[id-1]
	var iv [][2]time.Duration
	for _, s := range spans {
		if s.Parent == id {
			iv = append(iv, [2]time.Duration{max(s.Start, p.Start), min(s.End, p.End)})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, reach time.Duration
	reach = p.Start
	for _, x := range iv {
		if x[0] > reach {
			reach = x[0]
		}
		if x[1] > reach {
			covered += x[1] - reach
			reach = x[1]
		}
	}
	return p.dur() - covered
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or ui.perfetto.dev). Each job is a process row;
// overlapping spans of a job (parallel unit evaluations) get separate
// thread lanes so every lane nests properly.
func writeChrome(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return spans[order[a]].Start < spans[order[b]].Start })
	lanes := map[int][][]time.Duration{} // job → per lane, the stack of open span ends
	events := make([]event, 0, len(spans))
	for _, i := range order {
		s := spans[i]
		lane := 0
		for ; ; lane++ {
			if lane == len(lanes[s.Job]) {
				lanes[s.Job] = append(lanes[s.Job], nil)
			}
			st := lanes[s.Job][lane]
			for len(st) > 0 && st[len(st)-1] <= s.Start {
				st = st[:len(st)-1]
			}
			if len(st) == 0 || s.End <= st[len(st)-1] {
				lanes[s.Job][lane] = append(st, s.End)
				break
			}
			lanes[s.Job][lane] = st
		}
		events = append(events, event{
			Name: s.Name, Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
			PID: s.Job, TID: lane,
			Args: map[string]any{"id": i + 1, "parent": s.Parent, "job": s.Job, "detail": s.Detail},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
