package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fpmix/internal/faultinject"
	"fpmix/internal/fleet"
	"fpmix/internal/jobs"
	"fpmix/internal/remote"
	"fpmix/internal/service"
)

// linkDelay is the deterministic one-way delay every remote-worker RPC
// crosses on service-cold: the 5 ms link of the remote-throughput
// experiment (BENCH_2026-08-08_remote.json), so the wire protocol is
// measured at a realistic distance rather than at loopback speed.
const linkDelay = 5 * time.Millisecond

// svcClient drives fpmixd over its HTTP API the way fpmixctl does:
// submit, follow /events to the end marker, fetch /result.
type svcClient struct {
	env    *runEnv
	remote bool // remote-only daemon + 2 remote.Run workers, fresh store per round
	d      *daemon
	cur    atomic.Pointer[tracer] // the round's tracer, read by the middleware
	http   http.Client
}

// daemon is one fpmixd incarnation: service.Server on its own store
// directory behind an httptest server, plus the remote workers.
type daemon struct {
	dir    string
	srv    *service.Server
	ts     *httptest.Server
	cancel context.CancelFunc
	wg     sync.WaitGroup
	used   bool
}

func (c *svcClient) start() error {
	d := &daemon{}
	var err error
	if d.dir, err = os.MkdirTemp(c.env.workdir, "store-*"); err != nil {
		return err
	}
	opts := service.Options{Dir: d.dir, Workers: evalSlots}
	if c.remote {
		// The remote-throughput experiment's daemon: remote-only, with
		// its fleet timing.
		opts = service.Options{
			Dir: d.dir, Workers: -1, DrainTimeout: time.Second,
			Fleet: fleet.Options{Heartbeat: 50 * time.Millisecond, Expiry: 30 * time.Second, MaxReassign: 10},
		}
	}
	if d.srv, err = service.New(opts); err != nil {
		os.RemoveAll(d.dir)
		return err
	}
	d.ts = httptest.NewServer(c.middleware(d.srv.Handler()))
	c.d = d
	if !c.remote {
		return nil
	}
	link := faultinject.NewNet(c.env.seed, faultinject.NetRates{Delay: 1}, linkDelay)
	ctx, cancel := context.WithCancel(context.Background())
	d.cancel = cancel
	for i := 0; i < evalSlots; i++ {
		d.wg.Add(1)
		go func(i int) {
			defer d.wg.Done()
			remote.Run(ctx, remote.WorkerOptions{
				Server: d.ts.URL, Name: fmt.Sprintf("bench%d", i),
				Poll: 200 * time.Millisecond, Parallel: 1, Net: link,
			})
		}(i)
	}
	// Until both workers registered, a remote-only daemon would
	// evaluate in-process through its fallback.
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		ws, err := c.workers()
		if err != nil {
			return err
		}
		if len(ws) >= evalSlots {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("remote workers never registered")
		}
	}
}

func (c *svcClient) close() {
	d := c.d
	if d == nil {
		return
	}
	c.d = nil
	if d.cancel != nil {
		d.cancel()
	}
	d.wg.Wait()
	d.srv.Close()
	d.ts.Close()
	os.RemoveAll(d.dir)
}

// beginRound gives service-cold a fresh daemon and store for every
// round, so each verdict is evaluated, journaled and cached anew; the
// long-lived service-warm daemon keeps its cache. The middleware records
// into tr until endRound.
func (c *svcClient) beginRound(tr *tracer) (roundMark, error) {
	if c.remote && c.d.used {
		c.close()
		if err := c.start(); err != nil {
			return roundMark{}, err
		}
	}
	c.d.used = true
	c.cur.Store(tr)
	return c.mark()
}

func (c *svcClient) endRound(before roundMark, obs *roundObs) {
	c.cur.Store(nil)
	after, err := c.mark()
	if err != nil {
		obs.err = err
		return
	}
	obs.storeBytes = after.storeBytes - before.storeBytes
	for id, w := range after.workers {
		b := before.workers[id]
		obs.units += w.Done - b.Done
		obs.discarded += w.Discarded - b.Discarded
		obs.unitWall += unitWall(w) - unitWall(b)
	}
}

// roundMark is the fleet registry and store size at a round boundary.
type roundMark struct {
	workers    map[string]fleet.WorkerInfo
	storeBytes int64
}

// unitWall is the total evaluation wall a worker has reported.
func unitWall(w fleet.WorkerInfo) time.Duration {
	return time.Duration(float64(w.Done) * w.MeanUnitMS * float64(time.Millisecond))
}

func (c *svcClient) mark() (roundMark, error) {
	m := roundMark{workers: make(map[string]fleet.WorkerInfo)}
	ws, err := c.workers()
	if err != nil {
		return m, err
	}
	for _, w := range ws {
		m.workers[w.ID] = w
	}
	err = filepath.WalkDir(c.d.dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err == nil {
			m.storeBytes += info.Size()
		}
		return err
	})
	return m, err
}

// workers reads the registry from GET /api/v1/workers.
func (c *svcClient) workers() ([]fleet.WorkerInfo, error) {
	var ws []fleet.WorkerInfo
	return ws, c.getJSON("/api/v1/workers", &ws)
}

// middleware times every request the daemon serves, by route.
func (c *svcClient) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		c.cur.Load().record("http."+route(r), 0, 0, start, time.Since(start))
	})
}

// route names the API call a request makes.
func route(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/api/v1/jobs":
		return "submit"
	case p == "/api/v1/fleet/claim":
		return "claim"
	case p == "/api/v1/fleet/report":
		return "report"
	case strings.HasPrefix(p, "/api/v1/fleet/"):
		return "fleet"
	case strings.HasSuffix(p, "/events"):
		return "events"
	}
	return "api"
}

func (c *svcClient) job(kernel string, tr *tracer, id int) jobSample {
	s := jobSample{kernel: kernel, id: id}
	start := time.Now()
	root := tr.begin("job", jobName(kernel), id, 0)
	final, jobID, err := c.submitAndWait(kernel)
	tr.end(root)
	s.wall = time.Since(start)
	if err != nil {
		s.err = fmt.Errorf("%s: %w", jobName(kernel), err)
		return s
	}
	var st service.JobStatus
	if err := c.getJSON("/api/v1/jobs/"+jobID, &st); err != nil {
		s.err = err
		return s
	}
	sum := st.Summary
	switch {
	case st.Job.State != jobs.StateDone:
		s.err = fmt.Errorf("%s: job %s ended %s: %s", jobName(kernel), jobID, st.Job.State, st.Job.Error)
		return s
	case sum == nil:
		s.err = fmt.Errorf("%s: job %s has no summary", jobName(kernel), jobID)
		return s
	}
	s.err = c.env.golden.check(kernel, final, sum.FinalPass, sum.StaticPct, sum.DynamicPct)
	s.tested, s.forked, s.cacheHits = sum.Tested, sum.Forked, sum.CacheHits
	s.prefixSaved = sum.PrefixSaved
	for _, ev := range sum.Evals {
		s.verdicts++
		if ev.Prov != "evaluated" {
			s.shortcuts++
			continue
		}
		wall := time.Duration(ev.WallNS)
		if len(s.units) == 0 {
			s.firstUnit = wall
		}
		s.units = append(s.units, wall)
	}
	j := st.Job
	s.queue, s.searchWall = j.Started.Sub(j.Created), j.Finished.Sub(j.Started)
	s.tail = s.wall - j.Finished.Sub(j.Created)
	return s
}

// submitAndWait is one fpmixctl session: POST the spec, follow the
// progress stream to its end marker, then read the final configuration.
func (c *svcClient) submitAndWait(kernel string) (final, id string, err error) {
	spec, err := json.Marshal(jobs.Spec{Kernel: kernel, Class: "W"})
	if err != nil {
		return "", "", err
	}
	resp, err := c.http.Post(c.d.ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		return "", "", err
	}
	var j jobs.Job
	if err := decode(resp, http.StatusCreated, &j); err != nil {
		return "", "", err
	}
	resp, err = c.http.Get(c.d.ts.URL + "/api/v1/jobs/" + j.ID + "/events")
	if err != nil {
		return "", j.ID, err
	}
	ended := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var ev service.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			resp.Body.Close()
			return "", j.ID, fmt.Errorf("events: %w", err)
		}
		if ev.Type == "end" {
			ended = true
			break
		}
	}
	resp.Body.Close()
	if !ended {
		return "", j.ID, fmt.Errorf("events stream ended without an end marker: %v", sc.Err())
	}
	resp, err = c.http.Get(c.d.ts.URL + "/api/v1/jobs/" + j.ID + "/result")
	if err != nil {
		return "", j.ID, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", j.ID, err
	}
	if resp.StatusCode != http.StatusOK {
		return "", j.ID, fmt.Errorf("result: %s: %s", resp.Status, body)
	}
	return string(body), j.ID, nil
}

func (c *svcClient) getJSON(path string, v any) error {
	resp, err := c.http.Get(c.d.ts.URL + path)
	if err != nil {
		return err
	}
	return decode(resp, http.StatusOK, v)
}

// decode reads a JSON response body, rejecting an unexpected status.
func decode(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %s: %s", resp.Request.Method, resp.Request.URL.Path, resp.Status, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}
