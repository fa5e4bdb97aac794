package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/profiler"
	"repro/internal/regions"
	"repro/internal/sim"
)

// closed-paper: a closed fleet of long paper-encoder streams (1,189
// actions a frame, relaxed manager) through fleet.RunStats at
// workers=2. Nearly all CPU is the per-action loop (Decide, Actual,
// Observe, Step); there is no admission frontier, router or checkpoint.
const closedWorkers = 2

type closedInputs struct {
	sys     *core.System
	relax   *regions.RelaxTables
	content *sim.FastContent
	seeds   []uint64
	cycles  int
}

func closedSize(tiny bool) (streams, cycles int) {
	if tiny {
		return 4, 3
	}
	return 128, 150
}

func buildClosed(seed uint64, tiny bool, tr *tracer) (*closedInputs, error) {
	streams, cycles := closedSize(tiny)
	id := tr.begin("regions.build", true)
	sys := profiler.IPodSystem()
	tab := regions.BuildTDTable(sys)
	relax, err := regions.BuildRelaxTables(tab, experiment.PaperRho)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	// The relaxed manager's decision plan is built lazily on first use
	// and shared through the tables: warm it here, not in the first round.
	regions.NewRelaxedManager(relax).Decide(0, 0)
	in := &closedInputs{
		sys:   sys,
		relax: relax,
		content: sim.NewFastContent(sim.Content{
			Sys:          sys,
			FrameFactor:  experiment.FrameFactor,
			ActionFactor: experiment.ActionFactor,
			NoiseAmp:     0.08,
		}, sys.NumActions()),
		seeds:  make([]uint64, streams),
		cycles: cycles,
	}
	base := fleet.ForSubsystem(seed, "perfbench/closed-paper")
	for k := range in.seeds {
		in.seeds[k] = fleet.DeriveSeed(base, k)
	}
	return in, nil
}

// stream builds stream k with its own manager and content memo.
func (in *closedInputs) stream(k int) fleet.Stream {
	return fleet.Stream{
		Name: fmt.Sprintf("encoder-%03d", k),
		Runner: sim.Runner{
			Sys:      in.sys,
			Mgr:      regions.NewRelaxedManager(in.relax),
			Exec:     in.content.WithSeed(in.seeds[k]),
			Overhead: sim.IPodOverhead,
			Cycles:   in.cycles,
			Period:   profiler.FramePeriod,
		},
	}
}

// closedSpec runs every stream alone through sim.Runner: the serial
// executable spec the fleet must reproduce exactly.
func closedSpec(in *closedInputs) (uint64, error) {
	res := &fleet.Result{Streams: make([]fleet.StreamResult, len(in.seeds))}
	for k := range in.seeds {
		s := in.stream(k)
		sink := sim.NewStatsSink(in.sys.NumLevels())
		s.Runner.Sink = sink
		tr, err := s.Runner.Run()
		if err != nil {
			return 0, fmt.Errorf("spec stream %s: %w", s.Name, err)
		}
		res.Streams[k] = fleet.StreamResult{Name: s.Name, Trace: tr, Stats: sink}
	}
	return digestFleet(res), nil
}

func runClosedPaper(cfg runConfig) (*outcome, error) {
	var tr *tracer
	if cfg.Trace {
		tr = newTracer("closed-paper", cfg.Seed)
	}
	var heap liveHeap
	setup := newSetupTimer(cfg.Tiny, func() (*closedInputs, error) { return buildClosed(cfg.Seed, cfg.Tiny, tr) })
	in, err := setup.run()
	if err != nil {
		return nil, err
	}
	var met *obs.FleetMetrics
	if cfg.Trace {
		met = obs.NewFleetMetrics(obs.NewRegistry("perfbench"))
	}

	var (
		digests         []uint64
		rate            []float64
		batches, steals []float64
		last            *fleet.Result
		work            workCounts
	)
	heap.mark()
	phase := beginTimed()
	err = timed(cfg.Seconds, func(int) error {
		var b0, s0 int64
		if met != nil {
			b0, s0 = met.Batches.Value(), met.Steals.Value()
		}
		c := now()
		streams := make([]fleet.Stream, len(in.seeds))
		for k := range streams {
			streams[k] = in.stream(k)
		}
		cfg.Progress.Add(int64(len(streams)))
		id := tr.begin("fleet.RunStats", true)
		res, err := fleet.RunStats(fleet.Config{Streams: streams, Workers: closedWorkers, Obs: met})
		tr.end(id)
		_, cpu := c.since()
		if err != nil {
			return fmt.Errorf("fleet.RunStats: %w", err)
		}
		work = countWork(res.Streams)
		rate = append(rate, float64(work.actions)/cpu)
		digests = append(digests, cfg.perturb(digestFleet(res)))
		if met != nil {
			batches = append(batches, float64(met.Batches.Value()-b0))
			steals = append(steals, float64(met.Steals.Value()-s0))
		}
		last = res
		heap.mark()
		return setup.between()
	})
	diag := phase.end(rate, closedWorkers)
	if err != nil {
		return nil, err
	}
	if err := setup.fill(); err != nil {
		return nil, err
	}
	setupS := setup.secs

	spec, err := closedSpec(in)
	if err != nil {
		return nil, err
	}
	out := &outcome{
		Attempted: len(digests) * len(in.seeds),
		Diag:      diag,
		Counts: map[string]int64{
			"actions":   work.actions,
			"decisions": work.decisions,
			"streams":   int64(len(in.seeds)),
		},
	}
	for _, d := range digests {
		if d != spec {
			out.Failed += len(in.seeds)
		}
	}
	if !cfg.Trace {
		out.Metrics = endToEndMetrics(rate, setupS, heap.mib())
		return out, nil
	}

	// Traced run: the per-layer set.
	id := tr.begin("metrics.AggregateStats", false)
	traces := make([]*sim.Trace, len(last.Streams))
	stats := make([]*sim.StatsSink, len(last.Streams))
	for k, s := range last.Streams {
		traces[k], stats[k] = s.Trace, s.Stats
	}
	metrics.AggregateStats(traces, stats)
	tr.end(id)

	sample := make([]func() fleet.Stream, min(2, len(in.seeds)))
	for k := range sample {
		sample[k] = func() fleet.Stream { return in.stream(k) }
	}
	probe, err := probePerAction(sample, tr)
	if err != nil {
		return nil, err
	}
	runCPU := median(tr.durations("fleet.RunStats", true))
	actionsPerRound := float64(work.actions)
	out.Metrics = append(out.Metrics, probe.metrics(float64(work.decisions)/actionsPerRound)...)
	out.Metrics = append(out.Metrics,
		metric{"regions.build_ms", median(tr.durations("regions.build", false)) / 1e6, "ms", len(setupS)},
		metric{"fleet.run_stats_cpu_s", runCPU / 1e9, "s", len(rate)},
		metric{"fleet.sched_self_share", 1 - actionsPerRound*probe.stepNs/runCPU, "ratio", len(rate)},
		metric{"fleet.batches", median(batches), "count", len(batches)},
		metric{"fleet.steals", median(steals), "count", len(steals)},
		metric{"metrics.summarize_ms", tr.sum("metrics.AggregateStats", false) / 1e6, "ms", 1},
		metric{"bench.traced_actions_per_cpu_s", median(rate), "actions/cpu-s", len(rate)},
	)
	return out, finishTrace(tr, cfg, "closed-paper")
}
