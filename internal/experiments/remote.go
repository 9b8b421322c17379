package experiments

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"regexp"
	"runtime"
	"sync"
	"time"

	"fpmix/internal/config"
	"fpmix/internal/faultinject"
	"fpmix/internal/fleet"
	"fpmix/internal/jobs"
	"fpmix/internal/kernels"
	"fpmix/internal/remote"
	"fpmix/internal/search"
	"fpmix/internal/service"
	"fpmix/internal/shadow"
)

// RemoteRow is one benchmark's remote-search throughput comparison:
// the same job end-to-end on (1) the in-process serial search, (2) a
// remote-only daemon driving one worker one unit at a time (one lease
// per claim, one verdict per report), and (3) the batched pipeline —
// two workers each evaluating two units in parallel with prefetched
// leases. Both remote legs use the same event-driven claim protocol.
type RemoteRow struct {
	Bench string
	Class kernels.Class
	// SerialNS is the in-process search wall (sensitivity profile
	// included, mirroring what a service job spends); OneNS and FleetNS
	// are submit-to-done walls of the two remote configurations.
	SerialNS int64
	OneNS    int64
	FleetNS  int64
	// SpeedupX is OneNS / FleetNS — the end-to-end gain of batched
	// pipelined delivery over one unit per RPC.
	SpeedupX float64
	// Units is the number of units delivered remotely in the fleet leg.
	Units int
	// Identical reports that all three legs composed the same effective
	// final configuration (exchange format, notes stripped).
	Identical bool
	FinalPass bool
}

// RemoteSweep aggregates a multi-kernel remote sweep: summed walls and
// the end-to-end throughput ratio of the batched pipeline over one unit
// per RPC across every benchmark measured.
type RemoteSweep struct {
	SerialNS int64
	OneNS    int64
	FleetNS  int64
	// SpeedupX is total OneNS over total FleetNS — the sweep-wide
	// throughput gain (wall-weighted, so long searches count for what
	// they cost).
	SpeedupX float64
	Units    int
}

// SweepOf folds per-benchmark rows into the sweep aggregate.
func SweepOf(rows []RemoteRow) RemoteSweep {
	var sw RemoteSweep
	for _, r := range rows {
		sw.SerialNS += r.SerialNS
		sw.OneNS += r.OneNS
		sw.FleetNS += r.FleetNS
		sw.Units += r.Units
	}
	if sw.FleetNS > 0 {
		sw.SpeedupX = float64(sw.OneNS) / float64(sw.FleetNS)
	}
	return sw
}

// linkDelay is the simulated one-way link latency every RPC crosses in
// both remote legs (a NetInjector with Delay rate 1 stalls each send by
// exactly this much, deterministically). Loopback HTTP costs ~50µs, so
// without a modeled link the experiment would measure filesystem and
// scheduler noise instead of the protocol; 5ms is an ordinary
// metro-area/cross-AZ hop — the distance at which running workers away
// from the daemon starts being worth a protocol's attention. Both legs
// get the identical network, so the comparison isolates the protocol,
// not the link: the one-unit-per-RPC leg crosses it for every claim and
// every report, where batched pipelined delivery amortizes claims into
// prefetched batches and pays one crossing per settled chain step.
const linkDelay = 5 * time.Millisecond

var remoteNotesRE = regexp.MustCompile(`(?m)[ \t]*;[^\n]*`)

// Remote runs the remote-search throughput experiment per benchmark.
func Remote(names []string, class kernels.Class, workers int) ([]RemoteRow, error) {
	var rows []RemoteRow
	for _, name := range names {
		b, err := kernels.Get(name, class)
		if err != nil {
			return nil, err
		}
		// Serial leg: the in-process search with the exact options a
		// service job uses (sensitivity profile, instruction granularity,
		// fork-point evaluation).
		runtime.GC()
		start := time.Now()
		sh, err := shadow.Collect(name+"."+string(class), b.Module, b.MaxSteps)
		if err != nil {
			return nil, fmt.Errorf("%s.%s: shadow: %w", name, class, err)
		}
		res, err := search.Run(search.Target{Module: b.Module, Verify: b.Verify, MaxSteps: b.MaxSteps, Base: b.Base},
			search.Options{
				Workers: workers, Granularity: config.KindInsn,
				BinarySplit: true, Prioritize: true,
				Shadow: sh, SensThreshold: b.SensTol,
			})
		if err != nil {
			return nil, fmt.Errorf("%s.%s: serial: %w", name, class, err)
		}
		serialNS := time.Since(start).Nanoseconds()
		var buf bytes.Buffer
		if err := res.Final.Write(&buf); err != nil {
			return nil, err
		}
		serialFinal := remoteNotesRE.ReplaceAllString(buf.String(), "")

		// One-unit leg: one worker, -parallel 1, one unit per RPC.
		oneNS, oneFinal, _, err := remoteLeg(name, class, 1, 1, 1)
		if err != nil {
			return nil, fmt.Errorf("%s.%s: one-unit leg: %w", name, class, err)
		}
		// Fleet leg: two workers × parallel 2, default (2×parallel) batch.
		fleetNS, fleetFinal, units, err := remoteLeg(name, class, 2, 2, 0)
		if err != nil {
			return nil, fmt.Errorf("%s.%s: fleet leg: %w", name, class, err)
		}

		rows = append(rows, RemoteRow{
			Bench:     name,
			Class:     class,
			SerialNS:  serialNS,
			OneNS:     oneNS,
			FleetNS:   fleetNS,
			SpeedupX:  float64(oneNS) / float64(fleetNS),
			Units:     units,
			Identical: oneFinal == serialFinal && fleetFinal == serialFinal,
			FinalPass: res.FinalPass,
		})
	}
	return rows, nil
}

// remoteLeg runs one kernel end-to-end on a remote-only daemon with
// nWorkers in-process worker runtimes over a loopback HTTP API,
// returning the submit-to-done wall, the final configuration (notes
// stripped) and the number of remotely delivered units.
func remoteLeg(name string, class kernels.Class, nWorkers, parallel, batch int) (ns int64, final string, units int, err error) {
	link := faultinject.NewNet(1, faultinject.NetRates{Delay: 1}, linkDelay)
	dir, err := os.MkdirTemp("", "fpbench-remote-*")
	if err != nil {
		return 0, "", 0, err
	}
	defer os.RemoveAll(dir)
	srv, err := service.New(service.Options{
		Dir: dir, Workers: -1, DrainTimeout: time.Second,
		Fleet: fleet.Options{
			Heartbeat: 50 * time.Millisecond, Expiry: 30 * time.Second,
			MaxReassign: 10,
		},
	})
	if err != nil {
		return 0, "", 0, err
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	var wg sync.WaitGroup
	for i := 0; i < nWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			remote.Run(wctx, remote.WorkerOptions{
				Server: ts.URL, Name: fmt.Sprintf("bench%d", i),
				Poll: 200 * time.Millisecond, Parallel: parallel, Batch: batch,
				Net: link,
			})
		}(i)
	}
	defer wg.Wait()
	defer wcancel()
	if err := awaitWorkers(srv, nWorkers); err != nil {
		return 0, "", 0, err
	}

	runtime.GC()
	start := time.Now()
	j, err := srv.Submit(jobs.Spec{Kernel: name, Class: string(class)})
	if err != nil {
		return 0, "", 0, err
	}
	deadline := time.Now().Add(10 * time.Minute)
	for {
		jj, ok := srv.Store().Get(j.ID)
		if !ok {
			return 0, "", 0, fmt.Errorf("job %s vanished", j.ID)
		}
		if jj.State.Terminal() {
			if jj.State != jobs.StateDone {
				return 0, "", 0, fmt.Errorf("job %s ended %s: %s", j.ID, jj.State, jj.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			return 0, "", 0, fmt.Errorf("job %s never finished", j.ID)
		}
		time.Sleep(2 * time.Millisecond)
	}
	ns = time.Since(start).Nanoseconds()

	data, err := os.ReadFile(srv.Store().ResultPath(j.ID))
	if err != nil {
		return 0, "", 0, err
	}
	for _, w := range srv.Pool().Workers() {
		units += w.Done
	}
	return ns, remoteNotesRE.ReplaceAllString(string(data), ""), units, nil
}

// awaitWorkers blocks until n live workers are registered (the daemon
// is remote-only, so every one of them is a remote worker).
func awaitWorkers(srv *service.Server, n int) error {
	deadline := time.Now().Add(30 * time.Second)
	for srv.Pool().Alive() < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("never saw %d live remote workers", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}
