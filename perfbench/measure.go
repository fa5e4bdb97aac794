package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuNanos returns the process CPU time (user+sys, all threads) so far.
// Hypervisor steal enters wall time but not this clock, which is why
// every throughput metric is divided by it.
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail with RUSAGE_SELF
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// clock is a paired wall/CPU reading.
type clock struct {
	wall time.Time
	cpu  int64
}

func now() clock { return clock{wall: time.Now(), cpu: cpuNanos()} }

// since returns the wall and CPU seconds elapsed since c.
func (c clock) since() (wallS, cpuS float64) {
	return time.Since(c.wall).Seconds(), float64(cpuNanos()-c.cpu) / 1e9
}

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the p-quantile of xs by linear interpolation between
// closest ranks (0 for none). xs is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// liveHeap tracks the peak live heap: the bytes still reachable right
// after a forced collection, read at the end of set-up and at the end of
// every round while that round's inputs and result are still reachable.
// Reading after a collection, rather than sampling the heap in use,
// keeps the figure independent of how far the pacer let garbage pile up
// (the runs keep the default GOGC), so it repeats from run to run.
type liveHeap struct{ peak uint64 }

// mark collects and records the live heap. Call it outside any CPU
// measurement: it costs a full collection.
func (h *liveHeap) mark() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.peak = max(h.peak, ms.HeapAlloc)
}

func (h *liveHeap) mib() float64 { return float64(h.peak) / (1 << 20) }

// cpuTimes is one /proc/stat "cpu" line: cumulative jiffies per state.
type cpuTimes struct{ total, steal uint64 }

// readProcStat returns the aggregate CPU line of /proc/stat, or ok=false
// where the file is missing or unreadable (steal is then not reported).
func readProcStat() (cpuTimes, bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTimes{}, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}, false
	}
	var t cpuTimes
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user, so it is not added again.
	for i := 1; i <= 8 && i < len(fields); i++ {
		v, err := strconv.ParseUint(fields[i], 10, 64)
		if err != nil {
			return cpuTimes{}, false
		}
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t, true
}

// stealShare is the share of all vCPU time the hypervisor stole between
// two /proc/stat readings (-1 when unavailable).
func stealShare(a, b cpuTimes, okA, okB bool) float64 {
	if !okA || !okB || b.total <= a.total {
		return -1
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// diagnostics are recorded beside the metrics and never gated: wall
// time moves with hypervisor steal, which the CPU-normalised metrics
// are built to exclude.
type diagnostics struct {
	WallS      float64
	CPUS       float64
	StealShare float64
	NumCPU     int
	GOMAXPROCS int
	GoVersion  string
	NumGC      uint32
	// Workers is the engine's worker pool size in this workload.
	Workers int
	// Rounds and RoundSpread describe the per-round throughput samples
	// behind actions_per_cpu_s: their count and interquartile range as
	// a share of their median.
	Rounds      int
	RoundSpread float64
}

func (d diagnostics) String() string {
	return fmt.Sprintf("diag timed_wall_s=%.3f timed_cpu_s=%.3f steal_share=%.4f nproc=%d gomaxprocs=%d go=%s gc_cycles=%d engine_workers=%d rounds=%d round_spread=%.4f",
		d.WallS, d.CPUS, d.StealShare, d.NumCPU, d.GOMAXPROCS, d.GoVersion, d.NumGC, d.Workers, d.Rounds, d.RoundSpread)
}

// timedPhase brackets the measured part of a run for the diagnostics.
type timedPhase struct {
	start  clock
	stat   cpuTimes
	statOK bool
	gc     uint32
}

func beginTimed() timedPhase {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st, ok := readProcStat()
	return timedPhase{start: now(), stat: st, statOK: ok, gc: ms.NumGC}
}

func (p timedPhase) end(rates []float64, workers int) diagnostics {
	wall, cpu := p.start.since()
	st, ok := readProcStat()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return diagnostics{
		WallS:       wall,
		CPUS:        cpu,
		StealShare:  stealShare(p.stat, st, p.statOK, ok),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		NumGC:       ms.NumGC - p.gc,
		Workers:     workers,
		Rounds:      len(rates),
		RoundSpread: (quantile(rates, 0.75) - quantile(rates, 0.25)) / median(rates),
	}
}
