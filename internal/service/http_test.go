package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fpmix/internal/fleet"
	"fpmix/internal/jobs"
)

// TestHTTPAPI exercises the whole HTTP surface against a live server:
// submit, list, status (with summary), the progress stream, the result
// download, the worker registry and the chaos kill endpoint.
func TestHTTPAPI(t *testing.T) {
	srv, err := New(Options{Dir: t.TempDir(), Workers: 4, Fleet: fastFleet})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Health first.
	resp, err := http.Get(ts.URL + "/api/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", resp.Status)
	}

	// Submit a kernel job.
	resp, err = http.Post(ts.URL+"/api/v1/jobs", "application/json",
		strings.NewReader(`{"kernel": "ep"}`))
	if err != nil {
		t.Fatal(err)
	}
	var j jobs.Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || j.ID == "" || j.Name != "ep.W" {
		t.Fatalf("submit: %s, job %+v", resp.Status, j)
	}

	// A malformed spec is rejected with a diagnostic.
	resp, err = http.Post(ts.URL+"/api/v1/jobs", "application/json",
		strings.NewReader(`{"kernel": "ep", "granularity": "nibble"}`))
	if err != nil {
		t.Fatal(err)
	}
	var apiErr map[string]string
	json.NewDecoder(resp.Body).Decode(&apiErr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(apiErr["error"], "granularity") {
		t.Fatalf("bad spec: %s %v", resp.Status, apiErr)
	}

	// The progress stream replays history and follows to the end marker.
	resp, err = http.Get(ts.URL + "/api/v1/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	evals, end := 0, false
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("stream line %q: %v", sc.Text(), err)
		}
		switch e.Type {
		case "eval":
			evals++
		case "end":
			end = true
		}
	}
	resp.Body.Close()
	if !end || evals == 0 {
		t.Fatalf("stream: %d evals, end=%v", evals, end)
	}

	// Status must now carry the summary.
	waitState(t, srv, j.ID, jobs.StateDone)
	resp, err = http.Get(ts.URL + "/api/v1/jobs/" + j.ID)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Job.State != jobs.StateDone || st.Summary == nil || st.Summary.Tested == 0 {
		t.Fatalf("status: %+v", st)
	}

	// Result download matches the stored artifact.
	resp, err = http.Get(ts.URL + "/api/v1/jobs/" + j.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || buf.Len() == 0 {
		t.Fatalf("result: %s (%d bytes)", resp.Status, buf.Len())
	}
	if got := resultOf(t, srv, j.ID); got != buf.String() {
		t.Error("downloaded result differs from the stored artifact")
	}

	// List shows the job; workers shows four; kill flips one to dead,
	// and the killed local worker re-registers under a fresh identity.
	var list []jobs.Job
	resp, _ = http.Get(ts.URL + "/api/v1/jobs")
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != j.ID {
		t.Fatalf("list: %+v", list)
	}
	var ws []fleet.WorkerInfo
	resp, _ = http.Get(ts.URL + "/api/v1/workers")
	json.NewDecoder(resp.Body).Decode(&ws)
	resp.Body.Close()
	if len(ws) != 4 {
		t.Fatalf("workers: %+v", ws)
	}
	resp, err = http.Post(ts.URL+"/api/v1/workers/"+ws[0].ID+"/kill", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("kill: %s", resp.Status)
	}
	waitRejoined(t, srv, ws[0].ID, 4)

	// Unknown job IDs 404 everywhere.
	for _, path := range []string{"/api/v1/jobs/j9999", "/api/v1/jobs/j9999/events", "/api/v1/jobs/j9999/result"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: %s, want 404", path, resp.Status)
		}
	}
}

// TestHTTPCancel cancels through the API.
func TestHTTPCancel(t *testing.T) {
	srv, err := New(Options{Dir: t.TempDir(), Workers: 2, Fleet: fastFleet})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json",
		strings.NewReader(`{"kernel": "lu"}`))
	if err != nil {
		t.Fatal(err)
	}
	var j jobs.Job
	json.NewDecoder(resp.Body).Decode(&j)
	resp.Body.Close()
	resp, err = http.Post(fmt.Sprintf("%s/api/v1/jobs/%s/cancel", ts.URL, j.ID), "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %s", resp.Status)
	}
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		jj, _ := srv.Store().Get(j.ID)
		if jj.State.Terminal() {
			if jj.State != jobs.StateCancelled {
				t.Fatalf("ended %s, want cancelled", jj.State)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("cancel never landed")
}
