// Command perfbench is the repository benchmark: three workloads that
// stress different layers of the Quality Manager engine, each checked
// against the serial executable spec on every run. See README.md for
// why each workload exists and which layer each metric measures.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload closed-paper --seed 1 --seconds 10 --trace 0
//
// --serve-workers sizes serve-checkpoint's engine pool (default 2, the
// daemon's shape). BENCHMARK.json passes 1: the pool at 2 deadlocks
// now and then (README.md, "Known hang").
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set, with --trace 1 the per-layer set.
// Lines before it print every metric with its unit and sample count,
// then the run's diagnostics (wall time, steal share, host shape).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"sync/atomic"
	"time"
)

// metric is one reported figure. Samples is how many measurements the
// value summarises (rounds, events, setups, ...).
type metric struct {
	Name    string
	Value   float64
	Unit    string
	Samples int
}

// outcome is what a workload run hands back to main.
type outcome struct {
	Attempted int
	Failed    int
	// Metrics holds the end-to-end set (untraced) or the per-layer set
	// (traced).
	Metrics []metric
	// Counts are deterministic facts of the run (actions, decisions,
	// engine events, verdicts, snapshots): a pure function of the seed
	// and sizes, identical between traced and untraced runs.
	Counts map[string]int64
	Diag   diagnostics
	// DiagMetrics are measured and printed but not part of the result
	// line: wall-time figures too exposed to the host to gate on.
	DiagMetrics []metric
}

// runConfig is what every workload receives.
type runConfig struct {
	Seed    uint64
	Seconds float64
	Trace   bool
	// Dir is a private working directory inside the checkout (state
	// directories, span dumps); the run removes what it creates.
	Dir string
	// Progress counts operations attempted so far; the watchdog reads
	// it to report a hung run's operations as failed.
	Progress *atomic.Int64
	// Artifacts is where span dumps and hang reports are written.
	Artifacts string
	// ServeWorkers is serve-checkpoint's OpenLive worker pool size.
	ServeWorkers int
	// Tiny selects test-sized inputs through the same code paths.
	Tiny bool
	// corrupt perturbs every result digest before the spec comparison,
	// so tests can show that a mismatch is reported as failed operations.
	corrupt bool
}

// perturb returns a run result's digest as the spec check sees it.
func (c runConfig) perturb(d uint64) uint64 {
	if c.corrupt {
		return d ^ 1
	}
	return d
}

type workload struct {
	name string
	run  func(runConfig) (*outcome, error)
}

var workloadList = []workload{
	{"closed-paper", runClosedPaper},
	{"routed-churn", runRoutedChurn},
	{"serve-checkpoint", runServeCheckpoint},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// result is the last line of standard output.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]metricResult `json:"metrics"`
}

type metricResult struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload: closed-paper, routed-churn or serve-checkpoint")
	seed := flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	workDir := flag.String("dir", ".bench_build", "working directory for state and artifacts, created if missing")
	serveWorkers := flag.Int("serve-workers", defaultServeWorkers, "serve-checkpoint's OpenLive worker pool; 1 runs the inline executor (see README: the pool deadlocks at 2)")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		os.Exit(2)
	}
	if *serveWorkers < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --serve-workers must be at least 1, got %d\n", *serveWorkers)
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: --seconds must be positive, got %v\n", *seconds)
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(mustMkdir(*workDir), fmt.Sprintf("run-%s-%d-", w.name, *seed))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	cfg := runConfig{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Dir: dir, Artifacts: *workDir, Progress: new(atomic.Int64), ServeWorkers: *serveWorkers}

	stop := startWatchdog(runDeadline, *workDir, w.name, *seed, cfg.Progress)
	out, err := w.run(cfg)
	stop()
	os.RemoveAll(dir)
	if err == nil {
		out.Metrics, err = complete(out.Metrics, cfg.Trace)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	printOutcome(os.Stdout, out)
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	return dir
}

// runDeadline is when the watchdog declares a run hung: well past a
// normal run (the timed phase plus a few seconds) and inside the three
// minutes a caller allows a run.
const runDeadline = 120 * time.Second

// startWatchdog reports a run that outlives its deadline as hung: it
// writes every goroutine's stack to an artifact in dir, prints a result
// with all attempted operations failed, and exits non-zero, so a
// deadlocked engine fails the run instead of stalling the caller. The
// returned function disarms it.
func startWatchdog(deadline time.Duration, dir, name string, seed uint64, progress *atomic.Int64) func() {
	t := time.AfterFunc(deadline, func() {
		path := filepath.Join(dir, fmt.Sprintf("hang-%s-seed%d-%d.txt", name, seed, os.Getpid()))
		if f, err := os.Create(path); err == nil {
			pprof.Lookup("goroutine").WriteTo(f, 2)
			f.Close()
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d hung past %v; goroutine stacks in %s\n", name, seed, deadline, path)
		} else {
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d hung past %v; cannot write stacks: %v\n", name, seed, deadline, err)
		}
		n := int(max(progress.Load(), 1))
		line, _ := json.Marshal(result{Correct: false, Attempted: n, Failed: n, Metrics: map[string]metricResult{}})
		fmt.Printf("%s\n", line)
		os.Exit(3)
	})
	return func() { t.Stop() }
}

func printOutcome(f *os.File, out *outcome) {
	res := result{
		Correct:   out.Failed == 0,
		Attempted: out.Attempted,
		Failed:    out.Failed,
		Metrics:   map[string]metricResult{},
	}
	for _, m := range out.Metrics {
		fmt.Fprintf(f, "metric %-36s %14.6g %-14s samples=%d\n", m.Name, m.Value, m.Unit, m.Samples)
		res.Metrics[m.Name] = metricResult{Value: m.Value, Unit: m.Unit}
	}
	for _, m := range out.DiagMetrics {
		fmt.Fprintf(f, "diag-metric %-31s %14.6g %-14s samples=%d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	keys := make([]string, 0, len(out.Counts))
	for k := range out.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(f, "count %-36s %d\n", k, out.Counts[k])
	}
	fmt.Fprintln(f, out.Diag)
	line, err := json.Marshal(res)
	if err != nil { // a metric that is not a finite number
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(f, "%s\n", line)
}
