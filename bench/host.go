package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark host is a virtual machine on a shared machine, and its
// neighbours change how fast it runs from one minute to the next in two
// ways. The hypervisor steals CPU time from the guest, and the CPU time
// the guest does get runs slower or faster (clock frequency, a busy
// sibling hyperthread). Both lengthen every wall: the rounds of one
// workload took from 0.21 s to 0.98 s on unchanged code.
//
// The end-to-end times are therefore normalized twice. A wall is scaled
// by the share of the CPU time the guest asked for that was not stolen
// (hostTimes), and every time by how fast the host ran a fixed speed
// probe over the run (hostSpeed, before each round and set-up; the
// median is used). The result is in reference seconds: the time the
// interval would have taken on CPUs of its own that run the probe in
// probeNominal.

// hostTimes is the guest's CPU time summed over its CPUs, in clock ticks,
// from the first line of /proc/stat: busy (user, nice, system, irq,
// softirq) and stolen by the hypervisor.
type hostTimes struct{ busy, steal float64 }

// readHost returns the counters so far; zero where /proc/stat is
// unreadable, which makes the correction a no-op.
func readHost() hostTimes {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return hostTimes{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return hostTimes{}
	}
	// cpu user nice system idle iowait irq softirq steal ...
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return hostTimes{}
	}
	var v [9]float64
	for i := 1; i < 9; i++ {
		v[i], _ = strconv.ParseFloat(fields[i], 64)
	}
	return hostTimes{busy: v[1] + v[2] + v[3] + v[6] + v[7], steal: v[8]}
}

func (h hostTimes) since(prev hostTimes) hostTimes {
	return hostTimes{busy: h.busy - prev.busy, steal: h.steal - prev.steal}
}

func (h hostTimes) add(o hostTimes) hostTimes {
	return hostTimes{busy: h.busy + o.busy, steal: h.steal + o.steal}
}

// share is the part of the CPU time asked for over an interval (h is
// a difference of two readings) that the hypervisor did not steal.
// Scaling a wall by it assumes stolen time delays the work in
// proportion to the time it ran; time spent blocked, which steal does
// not delay, is scaled too, so a busy host reads slightly low, in the
// same way for every version of the code.
func (h hostTimes) share() float64 {
	if h.busy <= 0 || h.steal <= 0 {
		return 1
	}
	return h.busy / (h.busy + h.steal)
}

// probeNominal is the speed probe's CPU time on the reference CPU.
const probeNominal = time.Millisecond

// probeTable is the speed probe's lookup table: 16 KiB, so it stays in
// the L1 cache and the probe times the core rather than memory.
var probeTable = func() []uint64 {
	t := make([]uint64, 2048)
	x := uint64(88172645463325252)
	for i := range t {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		t[i] = x
	}
	return t
}()

var probeSink uint64

// probeWork is the speed probe: table lookups feeding data-dependent
// branches, integer and floating-point updates, the kind of work the
// fpmix VM interpreter does. It shares no code with fpmix, so no change
// to fpmix changes the reference.
func probeWork() uint64 {
	var acc, idx uint64
	f := 1.0
	for i := uint64(0); i < 100000; i++ {
		v := probeTable[idx&2047]
		switch v & 3 {
		case 0:
			acc += v
		case 1:
			acc ^= v >> 3
		case 2:
			f = f*1.0000001 + float64(v&255)
		case 3:
			acc -= v << 1
		}
		idx = v ^ acc + i
	}
	return acc + uint64(f)
}

// threadCPU is the calling thread's CPU time (CLOCK_THREAD_CPUTIME_ID),
// which excludes stolen time; ok is false where the clock is missing.
func threadCPU() (d time.Duration, ok bool) {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, false
	}
	return time.Duration(ts.Nano()), true
}

// hostSpeed runs the speed probe three times and returns probeNominal
// over the median probe time: above 1 when the host runs faster than
// the reference CPU. It returns 1 where the thread clock is missing.
func hostSpeed() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var ds []float64
	for i := 0; i < 3; i++ {
		t0, ok := threadCPU()
		probeSink += probeWork()
		t1, _ := threadCPU()
		if !ok || t1 <= t0 {
			return 1
		}
		ds = append(ds, float64(t1-t0))
	}
	return float64(probeNominal) / median(ds)
}

// unstolen is a wall with the stolen share h of its interval removed.
func unstolen(wall time.Duration, h hostTimes) time.Duration {
	return time.Duration(float64(wall) * h.share())
}

// resetPeakRSS restarts the kernel's peak-resident-set counter (VmHWM)
// from the current resident set, so the next peakRSSMiB reads the peak
// since this call. Where the write is refused, peakRSSMiB reads the
// process's peak so far, which is still a peak, only over a longer
// span; nothing else depends on the reset.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB is VmHWM from /proc/self/status: the process's peak
// resident set since start or the last resetPeakRSS.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
