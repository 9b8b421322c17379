// Command fpmixctl is the client for the fpmixd search service.
//
//	fpmixctl [-server URL] submit -bench ep -class W
//	fpmixctl submit -image prog.fpm -verify rel -tol 1e-8
//	fpmixctl list
//	fpmixctl status j0001
//	fpmixctl wait j0001                  # poll until the job ends
//	fpmixctl watch j0001                 # follow the progress stream
//	fpmixctl cancel j0001
//	fpmixctl result j0001 -o final.cfg   # download the final configuration
//	fpmixctl workers                     # fleet table with throughput columns
//	fpmixctl workers -json               # raw registry snapshot
//	fpmixctl kill-worker w2              # chaos: report a worker dead
//
// The server URL defaults to http://127.0.0.1:8606 and can also come
// from $FPMIXD_SERVER.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"text/tabwriter"
	"time"

	"fpmix/internal/fleet"
)

func main() {
	server := flag.String("server", defaultServer(), "fpmixd base URL")
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
	}
	c := &client{base: *server}
	cmd, args := flag.Arg(0), flag.Args()[1:]
	var err error
	switch cmd {
	case "submit":
		err = c.submit(args)
	case "list":
		err = c.getJSON("/api/v1/jobs")
	case "status":
		err = c.withID(args, func(id string) error { return c.getJSON("/api/v1/jobs/" + id) })
	case "wait":
		err = c.wait(args)
	case "watch":
		err = c.withID(args, c.watch)
	case "cancel":
		err = c.withID(args, func(id string) error { return c.postJSON("/api/v1/jobs/"+id+"/cancel", nil) })
	case "result":
		err = c.result(args)
	case "workers":
		err = c.workers(args)
	case "kill-worker":
		err = c.withID(args, func(id string) error { return c.postJSON("/api/v1/workers/"+id+"/kill", nil) })
	case "health":
		err = c.getJSON("/api/v1/healthz")
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpmixctl:", err)
		os.Exit(1)
	}
}

func defaultServer() string {
	if s := os.Getenv("FPMIXD_SERVER"); s != "" {
		return s
	}
	return "http://127.0.0.1:8606"
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: fpmixctl [-server URL] <submit|list|status|wait|watch|cancel|result|workers|kill-worker|health> ...")
	os.Exit(2)
}

type client struct{ base string }

func (c *client) withID(args []string, f func(string) error) error {
	if len(args) != 1 {
		return fmt.Errorf("expected exactly one job/worker ID, got %v", args)
	}
	return f(args[0])
}

// submit builds a job spec from flags and posts it.
func (c *client) submit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	bench := fs.String("bench", "", "kernel to search (mutually exclusive with -image)")
	class := fs.String("class", "W", "input class")
	image := fs.String("image", "", "program image file to search (needs -verify)")
	verify := fs.String("verify", "", "verifier for -image: rel or bitexact")
	tol := fs.Float64("tol", 0, "relative tolerance for -verify rel")
	maxSteps := fs.Uint64("maxsteps", 0, "step bound for -image runs (0 = none)")
	gran := fs.String("granularity", "insn", "finest search level: func, block or insn")
	noSens := fs.Bool("nosens", false, "disable sensitivity guidance")
	noPrune := fs.Bool("noprune", false, "disable static candidate pruning")
	noProve := fs.Bool("noprove", false, "disable the error-bound prover")
	chaos := fs.Int64("chaos", 0, "arm seeded fault injection (0 = off)")
	fs.Parse(args)
	spec := map[string]any{
		"granularity": *gran,
	}
	if *bench != "" {
		spec["kernel"] = *bench
		spec["class"] = *class
	}
	if *image != "" {
		data, err := os.ReadFile(*image)
		if err != nil {
			return err
		}
		spec["image"] = data
		if *verify != "" {
			v := map[string]any{"mode": *verify}
			if *tol != 0 {
				v["tol"] = *tol
			}
			spec["verifier"] = v
		}
		if *maxSteps != 0 {
			spec["max_steps"] = *maxSteps
		}
	}
	if *noSens {
		spec["nosens"] = true
	}
	if *noPrune {
		spec["noprune"] = true
	}
	if *noProve {
		spec["noprove"] = true
	}
	if *chaos != 0 {
		spec["chaos"] = *chaos
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	return c.postJSON("/api/v1/jobs", body)
}

// wait polls the job until it reaches a terminal state, then prints the
// final status; a non-done terminal state is an error exit.
func (c *client) wait(args []string) error {
	fs := flag.NewFlagSet("wait", flag.ExitOnError)
	interval := fs.Duration("interval", time.Second, "poll interval")
	timeout := fs.Duration("timeout", 30*time.Minute, "give up after this long")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("expected exactly one job ID")
	}
	id := fs.Arg(0)
	deadline := time.Now().Add(*timeout)
	for {
		resp, err := http.Get(c.base + "/api/v1/jobs/" + id)
		if err != nil {
			return err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(data))
		}
		var st struct {
			Job struct {
				State string `json:"state"`
				Error string `json:"error"`
			} `json:"job"`
		}
		if err := json.Unmarshal(data, &st); err != nil {
			return err
		}
		switch st.Job.State {
		case "done":
			os.Stdout.Write(data)
			return nil
		case "failed", "cancelled":
			os.Stdout.Write(data)
			return fmt.Errorf("job %s %s: %s", id, st.Job.State, st.Job.Error)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s still %s after %s", id, st.Job.State, *timeout)
		}
		time.Sleep(*interval)
	}
}

// watch follows the job's ndjson progress stream, printing one line
// per event until the stream ends. A dropped connection (daemon
// restart, network blip) reconnects with exponential backoff and
// resumes from the last-seen sequence number via ?from=, so no event
// is missed or repeated across reconnects.
func (c *client) watch(id string) error {
	last := 0 // highest event seq already printed
	backoff := 500 * time.Millisecond
	const maxBackoff = 8 * time.Second
	for attempt := 0; ; attempt++ {
		ended, progressed, err := c.watchOnce(id, &last)
		if ended {
			return nil
		}
		if err != nil && attempt == 0 && last == 0 {
			// The very first connect failed outright (bad job ID, no
			// server): report it instead of retrying forever.
			return err
		}
		if progressed {
			backoff = 500 * time.Millisecond
		}
		fmt.Fprintf(os.Stderr, "fpmixctl: stream dropped (%v), reconnecting from seq %d in %s\n",
			err, last+1, backoff)
		time.Sleep(backoff)
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// watchOnce runs one stream connection. It reports whether the stream
// ended cleanly (the "end" marker arrived) and whether any event was
// received on this connection (progress resets the reconnect backoff).
func (c *client) watchOnce(id string, last *int) (ended, progressed bool, err error) {
	resp, err := http.Get(fmt.Sprintf("%s/api/v1/jobs/%s/events?from=%d", c.base, id, *last+1))
	if err != nil {
		return false, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return false, false, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(data))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var e struct {
			Seq  int    `json:"seq"`
			Type string `json:"type"`
			Note string `json:"note"`
			Eval *struct {
				Label string `json:"label"`
				Pass  bool   `json:"pass"`
				Prov  string `json:"prov"`
				Insns int    `json:"insns"`
			} `json:"eval"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			fmt.Println(sc.Text())
			continue
		}
		if e.Seq > *last {
			*last = e.Seq
		}
		progressed = true
		switch e.Type {
		case "eval":
			verdict := "fail"
			if e.Eval.Pass {
				verdict = "pass"
			}
			fmt.Printf("%-10s %-4s %s (%d insns)\n", e.Eval.Prov, verdict, e.Eval.Label, e.Eval.Insns)
		case "note":
			fmt.Printf("note: %s\n", e.Note)
		case "end":
			return true, progressed, nil
		}
	}
	if err := sc.Err(); err != nil {
		return false, progressed, err
	}
	return false, progressed, fmt.Errorf("stream closed without end marker")
}

// workers renders the fleet registry as a table with per-worker
// throughput columns (units/s, mean unit wall, in-flight) fed by the
// daemon's batch accounting; -json dumps the raw snapshot instead.
func (c *client) workers(args []string) error {
	fs := flag.NewFlagSet("workers", flag.ExitOnError)
	raw := fs.Bool("json", false, "print the raw JSON registry snapshot")
	fs.Parse(args)
	if *raw {
		return c.getJSON("/api/v1/workers")
	}
	resp, err := http.Get(c.base + "/api/v1/workers")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(data))
	}
	var workers []fleet.WorkerInfo
	if err := json.Unmarshal(data, &workers); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ID\tNAME\tSTATE\tPAR\tIN-FLIGHT\tDONE\tDISC\tFAILS\tUNITS/S\tMEAN-UNIT\tLAST-BEAT")
	for _, w := range workers {
		name := w.Name
		if name == "" {
			name = "-"
		}
		ups, mean := "-", "-"
		if w.Done > 0 {
			ups = fmt.Sprintf("%.1f", w.UnitsPerSec)
			mean = fmt.Sprintf("%.2fms", w.MeanUnitMS)
		}
		// IN-FLIGHT is evaluating/leased: how many units run right now
		// over how many the daemon has in the worker's hands.
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d/%d\t%d\t%d\t%d\t%s\t%s\t%s\n",
			w.ID, name, w.State, w.Parallel, w.Evaluating, w.InFlight,
			w.Done, w.Discarded, w.Fails, ups, mean,
			w.LastBeat.Format("15:04:05.000"))
	}
	return tw.Flush()
}

// result downloads the final configuration.
func (c *client) result(args []string) error {
	fs := flag.NewFlagSet("result", flag.ExitOnError)
	out := fs.String("o", "", "write the configuration here instead of stdout")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("expected exactly one job ID")
	}
	resp, err := http.Get(c.base + "/api/v1/jobs/" + fs.Arg(0) + "/result")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(data))
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	_, err = io.Copy(w, resp.Body)
	return err
}

func (c *client) getJSON(path string) error {
	resp, err := http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return printResponse(resp)
}

func (c *client) postJSON(path string, body []byte) error {
	resp, err := http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return printResponse(resp)
}

func printResponse(resp *http.Response) error {
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(data))
	}
	os.Stdout.Write(data)
	return nil
}
