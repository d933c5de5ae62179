package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below it.
// xs must be sorted ascending; an empty slice yields NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return xs[percentileRank(len(xs), p)-1]
}

// percentileRank is the 1-based nearest rank of the p-th percentile of n
// samples: ceil(p/100 · n), clamped to [1, n]. The small slack keeps a
// product like 99.9/100 · 10000, which floating point puts a hair above
// 9990, at its exact rank.
func percentileRank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples ranked after the p-th percentile of n
// samples — the tail a reported percentile rests on.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - percentileRank(n, p)
}

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// highestTail returns the highest percentile on the ladder that still has
// at least ten samples beyond it, or 0 when even the median has fewer.
func highestTail(n int) float64 {
	for _, p := range tailLadder {
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return 0
}

// latencies is a concurrency-safe sample of durations in milliseconds.
type latencies struct {
	mu sync.Mutex
	ms []float64
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.ms = append(l.ms, float64(d.Nanoseconds())/1e6)
	l.mu.Unlock()
}

// sorted returns the samples in ascending order.
func (l *latencies) sorted() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := append([]float64(nil), l.ms...)
	sort.Float64s(out)
	return out
}

// median returns the median of xs (which it sorts in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// cpuTime returns the process's user+system CPU time so far. Time spent
// waiting to run does not count; on a virtual machine, time the
// hypervisor steals can still inflate it.
func cpuTime() time.Duration {
	user, sys := cpuTimes()
	return user + sys
}

// cpuTimes returns the process's user and system CPU time so far.
func cpuTimes() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// threadCPUTime returns the CPU time of the calling OS thread. A caller
// that wants one goroutine's CPU time must lock it to its thread
// (runtime.LockOSThread) across both readings.
func threadCPUTime() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// cpuStat is the aggregate "cpu" line of /proc/stat in clock ticks.
type cpuStat struct {
	total, steal uint64
}

// parseProcStat reads the aggregate cpu line of a /proc/stat stream. The
// fields are user nice system idle iowait irq softirq steal [guest
// guest_nice]; guest time is already included in user, so it is not added
// to the total again.
func parseProcStat(r io.Reader) (cpuStat, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || fields[0] != "cpu" {
			continue
		}
		if len(fields) < 5 {
			return cpuStat{}, fmt.Errorf("proc/stat: short cpu line %q", sc.Text())
		}
		var st cpuStat
		for i, f := range fields[1:] {
			if i >= 8 {
				break // guest, guest_nice: counted in user/nice already
			}
			v, err := strconv.ParseUint(f, 10, 64)
			if err != nil {
				return cpuStat{}, fmt.Errorf("proc/stat: field %d: %w", i+1, err)
			}
			st.total += v
			if i == 7 {
				st.steal = v
			}
		}
		return st, nil
	}
	if err := sc.Err(); err != nil {
		return cpuStat{}, err
	}
	return cpuStat{}, fmt.Errorf("proc/stat: no aggregate cpu line")
}

// readProcStat samples /proc/stat; ok is false where it is unavailable.
func readProcStat() (cpuStat, bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}, false
	}
	defer f.Close()
	st, err := parseProcStat(f)
	return st, err == nil
}

// stealShare is the fraction of all CPU ticks between two samples that
// the hypervisor stole.
func stealShare(a, b cpuStat) float64 {
	if b.total <= a.total || b.steal < a.steal {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// environment is the diagnostic block every report carries. It is not
// gated: it says what machine the numbers came from.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	StealShare float64 `json:"steal_share"`
}

func newEnvironment(steal float64) environment {
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		StealShare: steal,
	}
}

// Runtime counters read through runtime/metrics.
const (
	metricHeapLive = "/gc/heap/live:bytes"
	metricAllocs   = "/gc/heap/allocs:objects"
	metricGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	metricTotalCPU = "/cpu/classes/total:cpu-seconds"
)

// readRuntime samples the named runtime metrics as float64s.
func readRuntime(names ...string) []float64 {
	samples := make([]metrics.Sample, len(names))
	for i, n := range names {
		samples[i].Name = n
	}
	metrics.Read(samples)
	out := make([]float64, len(names))
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

// heapSampler averages the live heap — the bytes the most recent garbage
// collection found reachable — over the measured phase, sampled on a
// fixed period. Garbage awaiting collection is not counted, so the mean
// does not depend on where the run's GC cycles happen to fall.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	sum  float64
	n    int
}

func startHeapSampler(period time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			h.sum += readRuntime(metricHeapLive)[0]
			h.n++
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// meanMB stops the sampler and returns the mean heap in MiB.
func (h *heapSampler) meanMB() float64 {
	close(h.stop)
	<-h.done
	return h.sum / float64(h.n) / (1 << 20)
}

// window measures one workload's measured phase: its wall time, the mean
// live heap, and the steal share of the machine over the phase.
type window struct {
	start  time.Time
	stat0  cpuStat
	statOK bool
	heap   *heapSampler
	wall   time.Duration
	heapMB float64
	steal  float64
}

// openWindow collects garbage left by set-up, so every run starts the
// measured phase from the same heap, then starts the clocks.
func openWindow() *window {
	runtime.GC()
	w := &window{heap: startHeapSampler(20 * time.Millisecond)}
	w.stat0, w.statOK = readProcStat()
	w.start = time.Now()
	return w
}

func (w *window) elapsed() time.Duration { return time.Since(w.start) }

func (w *window) close() {
	w.wall = time.Since(w.start)
	w.heapMB = w.heap.meanMB()
	if st, ok := readProcStat(); ok && w.statOK {
		w.steal = stealShare(w.stat0, st)
	}
}
