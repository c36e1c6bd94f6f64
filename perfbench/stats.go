package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place); 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Runtime figures are read through runtime/metrics only: unlike
// runtime.ReadMemStats it never stops the world, so sampling does not
// perturb the run it measures.
const (
	mLiveHeap   = "/gc/heap/live:bytes"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mGCPauseCPU = "/cpu/classes/gc/pause:cpu-seconds"
	mAllocBytes = "/gc/heap/allocs:bytes"
	mSchedLat   = "/sched/latencies:seconds"
)

// runtimeReading is one read of the runtime counters a trial reports.
type runtimeReading struct {
	gcCycles   uint64
	gcPauseCPU float64
	allocBytes uint64
	schedLat   *metrics.Float64Histogram
}

func readRuntime() runtimeReading {
	s := []metrics.Sample{{Name: mGCCycles}, {Name: mGCPauseCPU}, {Name: mAllocBytes}, {Name: mSchedLat}}
	metrics.Read(s)
	return runtimeReading{
		gcCycles:   s[0].Value.Uint64(),
		gcPauseCPU: s[1].Value.Float64(),
		allocBytes: s[2].Value.Uint64(),
		schedLat:   s[3].Value.Float64Histogram(),
	}
}

// runtimeDelta is what the runtime did between two readings.
type runtimeDelta struct {
	gcCycles   float64
	gcPauseMS  float64
	allocBytes float64
	schedP99US float64
}

func (a runtimeReading) to(b runtimeReading) runtimeDelta {
	d := runtimeDelta{
		gcCycles: float64(b.gcCycles - a.gcCycles),
		// The pause class counts CPU time of all Ps while the world is
		// stopped; divided by GOMAXPROCS it is wall-clock pause time.
		gcPauseMS:  (b.gcPauseCPU - a.gcPauseCPU) / float64(runtime.GOMAXPROCS(0)) * 1e3,
		allocBytes: float64(b.allocBytes - a.allocBytes),
	}
	// Scheduling latency p99 from the histogram's bucket deltas (the
	// upper bound of the bucket holding the 99th percentile).
	counts := make([]uint64, len(b.schedLat.Counts))
	var total uint64
	for i := range counts {
		counts[i] = b.schedLat.Counts[i] - a.schedLat.Counts[i]
		total += counts[i]
	}
	if total > 0 {
		target := uint64(math.Ceil(0.99 * float64(total)))
		var seen uint64
		for i, c := range counts {
			seen += c
			if seen >= target {
				up := b.schedLat.Buckets[i+1]
				if math.IsInf(up, 1) {
					up = b.schedLat.Buckets[i]
				}
				d.schedP99US = up * 1e6
				break
			}
		}
	}
	return d
}

// heapSampler follows the live heap — the heap marked live by the most
// recent GC cycle — polled without stopping the world. Its figures are
// growth over the live heap at start, which callers take right after a
// GC: what the trial itself built, without the inputs and the results
// of earlier trials the harness holds.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	base uint64
	peak uint64 // owned by the polling goroutine until done closes
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: mLiveHeap}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{}), base: liveHeap()}
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			h.peak = max(h.peak, liveHeap())
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns, in MiB, the live heap after one
// more GC — the state the trial built, which callers keep reachable past
// this call — and the peak over the trial, that GC included. The peak
// also holds whatever was in flight when the trial's own GC cycles
// happened to run, so it moves from trial to trial more than the end
// figure does.
func (h *heapSampler) finish() (end, peak float64) {
	close(h.stop)
	<-h.done
	runtime.GC()
	live := liveHeap()
	mib := func(b uint64) float64 {
		if b < h.base {
			return 0
		}
		return float64(b-h.base) / (1 << 20)
	}
	return mib(live), mib(max(h.peak, live))
}

// machine is the stamp every run carries: the figures of a run mean
// little without the processor count, the scheduler width, the CPU, the
// toolchain and the source revision they were measured with.
type machine struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func stampMachine() machine {
	return machine{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     buildRevision(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// buildRevision is the VCS revision the go command stamped into the
// binary; "unknown" when it was built outside a git checkout.
func buildRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// cpuSeconds is the CPU time the process has used so far, user and
// system, as the kernel accounts it.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
