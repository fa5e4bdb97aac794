package main

import (
	"fmt"

	"repro/internal/arrivals"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/regions"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// routed-churn: many one-cycle catalog streams (audio encoder, SDR
// pipeline, video decoder; mean ~635 actions) arriving as a Poisson
// process offered near capacity, routed by least-backlog across M=2
// engine instances of one worker each, cap=16,queue=32 admission per
// instance. The per-action share is diluted; the router, the frontier's
// per-event cost, admission and summarisation are what remain.
const (
	routedInstances = 2
	routedWorkers   = 1
	// routedGap is the mean arrival gap: the audio encoder's 26 ms
	// period over 8, which offers the 2×16 service slots slightly more
	// than they complete, so a small share of arrivals is shed.
	routedGap = 26 * core.Millisecond / 8
)

var routedAdmit = fleet.CapK{K: 16, Queue: 32}

// catalogOrder fixes the catalog's iteration order.
var catalogOrder = []string{"audio-encoder", "sdr-pipeline", "video-decoder"}

type routedInputs struct {
	systems  []*core.System
	relax    []*regions.RelaxTables
	kind     []uint8 // per arrival: index into systems
	seeds    []uint64
	arrivals []core.Time
}

func routedSize(tiny bool) int {
	if tiny {
		return 60
	}
	return 10000
}

func buildRouted(seed uint64, tiny bool, tr *tracer) (*routedInputs, error) {
	n := routedSize(tiny)
	cat, err := workloads.Catalog()
	if err != nil {
		return nil, err
	}
	in := &routedInputs{}
	id := tr.begin("regions.build", true)
	for _, name := range catalogOrder {
		sys := cat[name]
		rt, err := regions.BuildRelaxTablesParallel(regions.BuildTDTableParallel(sys), []int{1, 5, 10, 25})
		if err != nil {
			tr.end(id)
			return nil, fmt.Errorf("%s tables: %w", name, err)
		}
		in.systems = append(in.systems, sys)
		in.relax = append(in.relax, rt)
	}
	tr.end(id)
	for _, rt := range in.relax {
		regions.NewRelaxedManager(rt).Decide(0, 0) // warm the shared decision plan
	}
	mix := fleet.ForSubsystem(seed, "perfbench/routed-churn/mix")
	content := fleet.ForSubsystem(seed, "perfbench/routed-churn/content")
	in.kind = make([]uint8, n)
	in.seeds = make([]uint64, n)
	for k := range in.kind {
		in.kind[k] = uint8(sim.Mix64(mix+uint64(k)) % uint64(len(in.systems)))
		in.seeds[k] = fleet.DeriveSeed(content, k)
	}
	proc := arrivals.Poisson{MeanGap: routedGap, Seed: fleet.ForSubsystem(seed, "perfbench/routed-churn/arrivals")}
	id = tr.begin("arrivals.Process.Times", true)
	in.arrivals, err = proc.Times(n)
	tr.end(id)
	return in, err
}

func (in *routedInputs) stream(k int) fleet.Stream {
	j := in.kind[k]
	sys := in.systems[j]
	return fleet.Stream{
		Name: fmt.Sprintf("%s-%05d", catalogOrder[j], k),
		Runner: sim.Runner{
			Sys:      sys,
			Mgr:      regions.NewRelaxedManager(in.relax[j]),
			Exec:     sim.Content{Sys: sys, NoiseAmp: 0.3, Seed: in.seeds[k]},
			Overhead: sim.IPodOverhead,
			Cycles:   1,
		},
	}
}

// population builds every arriving stream.
func (in *routedInputs) population() []fleet.Stream {
	streams := make([]fleet.Stream, len(in.kind))
	for k := range streams {
		streams[k] = in.stream(k)
	}
	return streams
}

func (in *routedInputs) config(streams []fleet.Stream, instances int, met []*obs.FleetMetrics) cluster.Config {
	return cluster.Config{
		Streams:   streams,
		Arrivals:  in.arrivals,
		Instances: instances,
		Route:     cluster.LeastBacklog{},
		Admit:     routedAdmit,
		Workers:   routedWorkers,
		Seed:      1,
		Obs:       met,
	}
}

func runRoutedChurn(cfg runConfig) (*outcome, error) {
	var tr *tracer
	if cfg.Trace {
		tr = newTracer("routed-churn", cfg.Seed)
	}
	var heap liveHeap
	setup := newSetupTimer(cfg.Tiny, func() (*routedInputs, error) { return buildRouted(cfg.Seed, cfg.Tiny, tr) })
	in, err := setup.run()
	if err != nil {
		return nil, err
	}
	var met []*obs.FleetMetrics
	if cfg.Trace {
		reg := obs.NewRegistry("perfbench")
		for i := 0; i < routedInstances; i++ {
			met = append(met, obs.NewFleetMetrics(reg.WithLabels("instance", fmt.Sprint(i))))
		}
	}

	var (
		digests []uint64
		rate    []float64
		last    *cluster.Result
		work    workCounts
	)
	heap.mark()
	phase := beginTimed()
	err = timed(cfg.Seconds, func(int) error {
		c := now()
		streams := in.population()
		cfg.Progress.Add(int64(len(streams)))
		id := tr.begin("cluster.Run", true)
		res, err := cluster.Run(in.config(streams, routedInstances, met))
		tr.end(id)
		_, cpu := c.since()
		if err != nil {
			return fmt.Errorf("cluster.Run: %w", err)
		}
		work = countWork(res.FleetResult().Streams)
		rate = append(rate, float64(work.actions)/cpu)
		digests = append(digests, cfg.perturb(digestCluster(res)))
		last = res
		heap.mark()
		return setup.between()
	})
	diag := phase.end(rate, routedWorkers)
	if err != nil {
		return nil, err
	}
	if err := setup.fill(); err != nil {
		return nil, err
	}
	setupS := setup.secs

	spec, err := cluster.RunSerial(in.config(in.population(), routedInstances, nil))
	if err != nil {
		return nil, fmt.Errorf("spec cluster.RunSerial: %w", err)
	}
	specDigest := digestCluster(spec)
	n := len(in.kind)
	out := &outcome{
		Attempted: len(digests) * n,
		Diag:      diag,
		Counts:    openCounts(work, &spec.Global),
	}
	for _, d := range digests {
		if d != specDigest {
			out.Failed += n
		}
	}
	if !cfg.Trace {
		out.Metrics = endToEndMetrics(rate, setupS, heap.mib())
		return out, nil
	}

	// Traced run: the per-layer set.
	id := tr.begin("metrics.SummarizeCluster", false)
	sum := last.Summarize()
	tr.end(id)

	// Router overhead: cluster.Run at M=1 against fleet.OpenRunStats at
	// workers=1 on the same inputs, which admit identically.
	id = tr.begin("cluster.Run.M1", true)
	if _, err := cluster.Run(in.config(in.population(), 1, nil)); err != nil {
		return nil, fmt.Errorf("cluster.Run M=1: %w", err)
	}
	tr.end(id)
	id = tr.begin("fleet.OpenRunStats", true)
	if _, err := fleet.OpenRunStats(fleet.OpenConfig{Streams: in.population(), Arrivals: in.arrivals, Admit: routedAdmit, Workers: 1}); err != nil {
		return nil, fmt.Errorf("fleet.OpenRunStats: %w", err)
	}
	tr.end(id)
	overhead := (tr.sum("cluster.Run.M1", true) - tr.sum("fleet.OpenRunStats", true)) / float64(n) / 1e3

	sample := make([]func() fleet.Stream, min(24, n))
	for k := range sample {
		sample[k] = func() fleet.Stream { return in.stream(k) }
	}
	probe, err := probePerAction(sample, tr)
	if err != nil {
		return nil, err
	}
	rounds := len(rate)
	out.Metrics = append(out.Metrics, probe.metrics(float64(work.decisions)/float64(work.actions))...)
	out.Metrics = append(out.Metrics, engineMetrics(met, rounds)...)
	out.Metrics = append(out.Metrics,
		metric{"regions.build_ms", median(tr.durations("regions.build", false)) / 1e6, "ms", len(setupS)},
		metric{"arrivals.times_ms", median(tr.durations("arrivals.Process.Times", false)) / 1e6, "ms", len(setupS)},
		metric{"cluster.run_cpu_s", median(tr.durations("cluster.Run", true)) / 1e9, "s", rounds},
		metric{"cluster.overhead_us_per_arrival", overhead, "us", 1},
		metric{"cluster.fairness", sum.Fairness, "ratio", 1},
		metric{"metrics.summarize_ms", tr.sum("metrics.SummarizeCluster", false) / 1e6, "ms", 1},
		metric{"bench.traced_actions_per_cpu_s", median(rate), "actions/cpu-s", rounds},
	)
	return out, finishTrace(tr, cfg, "routed-churn")
}
