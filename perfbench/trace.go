package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// function. Parent is the enclosing span (-1 at top level); Run is the
// per-run id shared by every span of one run.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	// Start and End are wall nanoseconds since the run began.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// CPU is the process CPU nanoseconds the span covered, or -1 where
	// the span was too short to read the CPU clock around it.
	CPU int64 `json:"cpu_ns"`
	// Self is End−Start minus the wall time covered by child spans,
	// filled in when the trace is written.
	Self int64 `json:"self_ns"`

	cpu0    int64
	withCPU bool
}

// tracer records spans and counts in memory; spans are written once,
// when the run ends. A nil *tracer is the untraced run: every method is
// a no-op, so traced and untraced runs execute the same calls.
type tracer struct {
	run    string
	t0     time.Time
	spans  []span
	stack  []int32
	counts map[string]int64
}

// newTracer starts a run's trace; the run id names the workload, the
// seed and the process, so dumps of repeated runs never share an id.
func newTracer(workload string, seed uint64) *tracer {
	t0 := time.Now()
	run := fmt.Sprintf("%s-seed%d-pid%d-%d", workload, seed, os.Getpid(), t0.UnixNano())
	return &tracer{run: run, t0: t0, counts: map[string]int64{}}
}

// begin opens a wall-clock span; withCPU also reads the CPU clock
// around it (about a microsecond, so not for per-event spans).
func (t *tracer) begin(name string, withCPU bool) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := int32(len(t.spans))
	s := span{ID: id, Parent: parent, Run: t.run, Name: name, CPU: -1, withCPU: withCPU}
	if withCPU {
		s.cpu0 = cpuNanos()
	}
	s.Start = int64(time.Since(t.t0))
	t.spans = append(t.spans, s)
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned; spans close in LIFO order.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	if s.withCPU {
		s.CPU = cpuNanos() - s.cpu0
	}
	t.stack = t.stack[:len(t.stack)-1]
}

// count adds n to a named count recorded at a span boundary.
func (t *tracer) count(name string, n int64) {
	if t == nil {
		return
	}
	t.counts[name] += n
}

// finish computes self times and writes the spans as JSON lines,
// followed by one line holding the run's counts.
func (t *tracer) finish(path string) error {
	if t == nil {
		return nil
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start - child[i]
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := enc.Encode(map[string]any{"run": t.run, "counts": t.counts}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durations returns the wall (or, with cpu, CPU) durations in
// nanoseconds of every span with the given name, in start order.
func (t *tracer) durations(name string, cpu bool) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		if cpu {
			out = append(out, float64(s.CPU))
		} else {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// sum adds the durations of every span with the given name.
func (t *tracer) sum(name string, cpu bool) float64 {
	total := 0.0
	for _, d := range t.durations(name, cpu) {
		total += d
	}
	return total
}
