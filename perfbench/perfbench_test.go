package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// tinyRun runs one workload at test size through the same code path as
// the benchmark: one round, the spec check, and the metric set.
func tinyRun(t *testing.T, w workload, seed uint64, traced, corrupt bool) *outcome {
	t.Helper()
	return tinyRunWorkers(t, w, seed, traced, corrupt, defaultServeWorkers)
}

func tinyRunWorkers(t *testing.T, w workload, seed uint64, traced, corrupt bool, serveWorkers int) *outcome {
	t.Helper()
	cfg := runConfig{
		Seed: seed, Seconds: 1e-3, Trace: traced, Tiny: true, corrupt: corrupt,
		Dir: t.TempDir(), Artifacts: t.TempDir(), Progress: new(atomic.Int64),
		ServeWorkers: serveWorkers,
	}
	out, err := w.run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if out.Metrics, err = complete(out.Metrics, traced); err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return out
}

func TestWorkloadsPassSpecCheck(t *testing.T) {
	for _, w := range workloadList {
		t.Run(w.name, func(t *testing.T) {
			out := tinyRun(t, w, 1, false, false)
			if out.Attempted == 0 || out.Failed != 0 {
				t.Fatalf("attempted %d, failed %d; want some attempted and none failed", out.Attempted, out.Failed)
			}
			for _, m := range out.Metrics {
				if !(m.Value > 0) {
					t.Errorf("metric %s = %v, want > 0", m.Name, m.Value)
				}
			}
		})
	}
}

// serve-checkpoint at one worker runs OpenLive's inline executor: it
// must pass the same spec check and do the same deterministic work as
// the default pool.
func TestServeWorkerShapesAgree(t *testing.T) {
	w, _ := findWorkload("serve-checkpoint")
	inline := tinyRunWorkers(t, w, 1, false, false, 1)
	pool := tinyRunWorkers(t, w, 1, false, false, defaultServeWorkers)
	if inline.Attempted == 0 || inline.Failed != 0 {
		t.Fatalf("workers=1: attempted %d, failed %d; want some attempted and none failed", inline.Attempted, inline.Failed)
	}
	if inline.Diag.Workers != 1 || pool.Diag.Workers != defaultServeWorkers {
		t.Errorf("diagnostics report workers %d and %d, want 1 and %d", inline.Diag.Workers, pool.Diag.Workers, defaultServeWorkers)
	}
	if !reflect.DeepEqual(inline.Counts, pool.Counts) {
		t.Errorf("counts differ between worker shapes:\n workers=1 %v\n workers=%d %v", inline.Counts, defaultServeWorkers, pool.Counts)
	}
}

func TestPerturbedDigestCountsAsFailed(t *testing.T) {
	for _, w := range workloadList {
		t.Run(w.name, func(t *testing.T) {
			out := tinyRun(t, w, 1, false, true)
			if out.Attempted == 0 || out.Failed != out.Attempted {
				t.Fatalf("attempted %d, failed %d; want every operation failed", out.Attempted, out.Failed)
			}
		})
	}
}

// The deterministic counts are a pure function of the seed and sizes:
// tracing must not move them, and a different seed must.
func TestTracingKeepsCountsAndSeedMovesThem(t *testing.T) {
	for _, w := range workloadList {
		t.Run(w.name, func(t *testing.T) {
			plain := tinyRun(t, w, 1, false, false)
			traced := tinyRun(t, w, 1, true, false)
			other := tinyRun(t, w, 2, false, false)
			if traced.Failed != 0 {
				t.Fatalf("traced run failed %d of %d operations", traced.Failed, traced.Attempted)
			}
			if !reflect.DeepEqual(plain.Counts, traced.Counts) {
				t.Errorf("counts differ with tracing:\n untraced %v\n traced   %v", plain.Counts, traced.Counts)
			}
			if plain.Counts["actions"] == other.Counts["actions"] && plain.Counts["decisions"] == other.Counts["decisions"] {
				t.Errorf("seeds 1 and 2 give the same counts %v: the seed does not reach the inputs", plain.Counts)
			}
		})
	}
}

// BENCHMARK.json and the program must declare the same metrics.
func TestDeclaredMetricsMatchProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd)
	same("per_layer", decl.PerLayer, perLayer)
	for _, w := range decl.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %q the program does not have", w.Name)
		}
	}
}

// A run past its deadline must leave goroutine stacks behind, report
// every attempted operation failed and exit non-zero. The hang is
// simulated in a child process, since the watchdog exits the process.
func TestWatchdogReportsHang(t *testing.T) {
	if dir := os.Getenv("PERFBENCH_HANG_DIR"); dir != "" {
		progress := new(atomic.Int64)
		progress.Store(7)
		startWatchdog(50*time.Millisecond, dir, "hung", 9, progress)
		select {} // never returns: the watchdog must end the process
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestWatchdogReportsHang$")
	cmd.Env = append(os.Environ(), "PERFBENCH_HANG_DIR="+dir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 3 {
		t.Fatalf("child exit: %v, want exit status 3", err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if res.Correct || res.Attempted != 7 || res.Failed != 7 {
		t.Errorf("result %+v, want 7 attempted, 7 failed, not correct", res)
	}
	dumps, _ := filepath.Glob(filepath.Join(dir, "hang-hung-seed9-*.txt"))
	if len(dumps) != 1 {
		t.Fatalf("hang dumps %v, want one", dumps)
	}
	stacks, err := os.ReadFile(dumps[0])
	if err != nil || !bytes.Contains(stacks, []byte("TestWatchdogReportsHang")) {
		t.Errorf("hang dump lacks the blocked goroutine's stack (err %v)", err)
	}
}
