package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/sim"
)

// setupRepeats is how many times each workload builds its inputs from
// scratch; setup_s is the median. One set-up lasts milliseconds, short
// enough for one burst of contention from a co-tenant on the same core
// to move it by half, so the builds are spread over the run: one before
// the timed phase, setupPerRound after each round, the rest at the end.
const (
	setupRepeats  = 21
	setupPerRound = 2
)

// setupTimer times repeated builds of a workload's inputs on the process
// CPU clock. Each build starts from a heap returned to the OS, as a
// fresh process's is, so every build pays the same page faults; and it
// runs with the collector paused: a collection that happens to start
// inside a build runs idle-priority mark workers on the idle CPU, which
// would bill the build for a varying share of a GC cycle.
type setupTimer[T any] struct {
	build func() (T, error)
	want  int
	secs  []float64
}

func newSetupTimer[T any](tiny bool, build func() (T, error)) *setupTimer[T] {
	want := setupRepeats
	if tiny {
		want = 1
	}
	return &setupTimer[T]{build: build, want: want}
}

// run performs one timed build.
func (s *setupTimer[T]) run() (T, error) {
	debug.FreeOSMemory()
	gc := debug.SetGCPercent(-1)
	c := now()
	v, err := s.build()
	_, cpu := c.since()
	debug.SetGCPercent(gc)
	if err != nil {
		return v, fmt.Errorf("setup: %w", err)
	}
	s.secs = append(s.secs, cpu)
	return v, nil
}

// between runs the builds due after a round; fill runs the rest. Their
// results are discarded: only their time is wanted.
func (s *setupTimer[T]) between() error {
	for i := 0; i < setupPerRound && len(s.secs) < s.want; i++ {
		if _, err := s.run(); err != nil {
			return err
		}
	}
	return nil
}

func (s *setupTimer[T]) fill() error {
	for len(s.secs) < s.want {
		if _, err := s.run(); err != nil {
			return err
		}
	}
	return nil
}

// timed runs round at least once and until seconds of wall time have
// passed. Every round starts from a collected heap, so no round pays for
// its predecessor's garbage.
func timed(seconds float64, round func(i int) error) error {
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < seconds; i++ {
		runtime.GC()
		if err := round(i); err != nil {
			return err
		}
	}
	return nil
}

// endToEndMetrics is the untraced run's metric set.
func endToEndMetrics(rate, setupS []float64, peakMiB float64) []metric {
	return []metric{
		{"actions_per_cpu_s", median(rate), "actions/cpu-s", len(rate)},
		{"setup_s", median(setupS), "s", len(setupS)},
		{"peak_heap_mib", peakMiB, "MiB", 1},
	}
}

// latencyMetrics reports the median and 99th percentile of wall-time
// samples given in nanoseconds, in microseconds.
func latencyMetrics(prefix string, ns []float64) []metric {
	return []metric{
		{prefix + "_p50_us", quantile(ns, 0.5) / 1e3, "us", len(ns)},
		{prefix + "_p99_us", quantile(ns, 0.99) / 1e3, "us", len(ns)},
	}
}

// recordingManager, recordingExec and recordingSink capture the inputs
// one stream hands to its per-action layers, so each layer can then be
// timed alone by replaying exactly those inputs.
type recordingManager struct {
	core.Manager
	calls []decideCall
}

type decideCall struct {
	i int
	t core.Time
}

func (m *recordingManager) Decide(i int, t core.Time) core.Decision {
	m.calls = append(m.calls, decideCall{i, t})
	return m.Manager.Decide(i, t)
}

type recordingExec struct {
	sim.ExecModel
	calls []actualCall
}

type actualCall struct {
	c, i int
	q    core.Level
}

func (e *recordingExec) Actual(c, i int, q core.Level) core.Time {
	e.calls = append(e.calls, actualCall{c, i, q})
	return e.ExecModel.Actual(c, i, q)
}

type recordingSink struct{ recs []sim.Record }

func (s *recordingSink) Observe(r sim.Record) { s.recs = append(s.recs, r) }

// perActionProbe times the per-action layers (Decide, Actual, Observe
// and the Stream.Step loop around them) on a sample of a workload's
// streams, each run in full so the sample sees the workload's content
// mix. The layers cost tens of nanoseconds a call, too little for one
// span each, so the probe times a fresh copy of each sampled stream's
// whole Step loop, then advances a capture copy one cycle at a time
// through recording wrappers and times a replay of that cycle's captured
// inputs into fresh instances of each layer. Replaying a cycle at a time
// keeps the captured inputs in cache, as the live loop's are.
// The probe runs on copies beside the workload; it never touches the
// measured engine run.
type perActionProbe struct {
	actions, decisions  int64
	stepNs, decideNs    float64
	actualNs, observeNs float64
	replays             int
}

const probeReplays = 5

func probePerAction(sample []func() fleet.Stream, tr *tracer) (perActionProbe, error) {
	var p perActionProbe
	var stepT, decT, actT, obsT []float64
	rm, re, rs := &recordingManager{}, &recordingExec{}, &recordingSink{}
	runtime.GC() // no collection left running into the timed loops
	for rep := 0; rep < probeReplays; rep++ {
		var stepNs, decNs, actNs, obsNs float64
		var actions, decisions int64
		for _, mk := range sample {
			id := tr.begin("probe.per_action", true)
			s := mk()
			rm.Manager, re.ExecModel = s.Runner.Mgr, s.Runner.Exec
			r := s.Runner
			r.Mgr, r.Exec, r.Sink = rm, re, rs
			capture, err := r.Stream()
			if err != nil {
				return p, fmt.Errorf("probe stream %s: %w", s.Name, err)
			}
			// The Step loop first, on its own, so it runs as warm as the
			// engine's; then the capture and replays, cycle by cycle.
			live := mk().Runner
			live.Sink = sim.NewStatsSink(live.Sys.NumLevels())
			st, err := live.Stream()
			if err != nil {
				return p, fmt.Errorf("probe stream %s: %w", s.Name, err)
			}
			t0 := time.Now()
			for st.Step() {
			}
			stepNs += float64(time.Since(t0))
			mgr, exec := mk().Runner.Mgr, mk().Runner.Exec
			sink := sim.NewStatsSink(live.Sys.NumLevels())
			for {
				rm.calls, re.calls, rs.recs = rm.calls[:0], re.calls[:0], rs.recs[:0]
				if !capture.Step() {
					break
				}
				actions += int64(len(rs.recs))
				decisions += int64(len(rm.calls))

				t1 := time.Now()
				for _, c := range rm.calls {
					mgr.Decide(c.i, c.t)
				}
				t2 := time.Now()
				for _, c := range re.calls {
					exec.Actual(c.c, c.i, c.q)
				}
				t3 := time.Now()
				for _, rec := range rs.recs {
					sink.Observe(rec)
				}
				t4 := time.Now()
				decNs += float64(t2.Sub(t1))
				actNs += float64(t3.Sub(t2))
				obsNs += float64(t4.Sub(t3))
			}
			tr.end(id)
		}
		tr.count("sim.Stream.Step.ns", int64(stepNs))
		tr.count("core.Manager.Decide.ns", int64(decNs))
		tr.count("sim.ExecModel.Actual.ns", int64(actNs))
		tr.count("sim.StatsSink.Observe.ns", int64(obsNs))
		tr.count("probe.actions", actions)
		tr.count("probe.decisions", decisions)
		p.actions, p.decisions = actions, decisions
		stepT = append(stepT, stepNs/float64(actions))
		decT = append(decT, decNs/float64(max(decisions, 1)))
		actT = append(actT, actNs/float64(actions))
		obsT = append(obsT, obsNs/float64(actions))
	}
	p.stepNs, p.decideNs, p.actualNs, p.observeNs = median(stepT), median(decT), median(actT), median(obsT)
	p.replays = probeReplays
	return p, nil
}

// metrics reports the probe as the regions and sim per-layer metrics.
// decisionsPerAction comes from the measured run itself.
func (p perActionProbe) metrics(decisionsPerAction float64) []metric {
	self := p.stepNs - (p.decideNs*float64(p.decisions)+(p.actualNs+p.observeNs)*float64(p.actions))/float64(p.actions)
	n := p.replays
	return []metric{
		{"regions.decide_ns", p.decideNs, "ns", n},
		{"regions.decisions_per_action", decisionsPerAction, "count", 1},
		{"sim.actual_ns", p.actualNs, "ns", n},
		{"sim.observe_ns", p.observeNs, "ns", n},
		{"sim.step_ns_per_action", p.stepNs, "ns", n},
		{"sim.step_self_ns_per_action", self, "ns", n},
	}
}
