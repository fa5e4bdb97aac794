package main

import (
	"fmt"
	"path/filepath"

	"repro/internal/obs"
)

// endToEnd is the untraced run's metric set, identical on every
// workload.
var endToEnd = []struct{ name, unit string }{
	{"actions_per_cpu_s", "actions/cpu-s"},
	{"setup_s", "s"},
	{"peak_heap_mib", "MiB"},
}

// perLayer is the traced run's metric set, identical on every workload:
// a layer a workload does not exercise reports 0. Names are
// <module>.<quantity>; README.md maps each to the end-to-end metric it
// should move.
var perLayer = []struct{ name, unit string }{
	{"regions.decide_ns", "ns"},
	{"regions.decisions_per_action", "count"},
	{"regions.build_ms", "ms"},
	{"controller.compile_ms", "ms"},
	{"controller.load_ms", "ms"},
	{"sim.actual_ns", "ns"},
	{"sim.observe_ns", "ns"},
	{"sim.step_ns_per_action", "ns"},
	{"sim.step_self_ns_per_action", "ns"},
	{"arrivals.times_ms", "ms"},
	{"fleet.run_stats_cpu_s", "s"},
	{"fleet.sched_self_share", "ratio"},
	{"fleet.batches", "count"},
	{"fleet.steals", "count"},
	{"fleet.events", "count"},
	{"fleet.blocking_drains_per_event", "ratio"},
	{"fleet.parks_per_event", "ratio"},
	{"fleet.flush_size_mean", "count"},
	{"fleet.overflow_parks", "count"},
	{"fleet.admitted", "count"},
	{"fleet.shed", "count"},
	{"fleet.delayed", "count"},
	{"fleet.feed_us_p50", "us"},
	{"fleet.feed_us_p99", "us"},
	{"fleet.capture_ms_p50", "ms"},
	{"fleet.close_ms", "ms"},
	{"cluster.run_cpu_s", "s"},
	{"cluster.overhead_us_per_arrival", "us"},
	{"cluster.fairness", "ratio"},
	{"checkpoint.save_ms_p50", "ms"},
	{"checkpoint.save_ms_p90", "ms"},
	{"checkpoint.encode_ms_p50", "ms"},
	{"checkpoint.snapshot_kib_max", "KiB"},
	{"checkpoint.load_latest_ms", "ms"},
	{"checkpoint.restore_ms", "ms"},
	{"obs.write_prom_us", "us"},
	{"metrics.summarize_ms", "ms"},
	{"bench.traced_actions_per_cpu_s", "actions/cpu-s"},
}

// complete orders a workload's metrics by the canonical set, adding the
// layers it does not exercise as 0 with no samples. It fails on a
// metric outside the set or with another unit, so the printed set can
// never drift from the declared one.
func complete(ms []metric, traced bool) ([]metric, error) {
	set := endToEnd
	if traced {
		set = perLayer
	}
	got := map[string]metric{}
	for _, m := range ms {
		got[m.Name] = m
	}
	out := make([]metric, 0, len(set))
	for _, d := range set {
		m, ok := got[d.name]
		if !ok {
			m = metric{Name: d.name, Unit: d.unit}
		}
		if m.Unit != d.unit {
			return nil, fmt.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
		}
		delete(got, d.name)
		out = append(out, m)
	}
	for name := range got {
		return nil, fmt.Errorf("metric %s is not in the declared set", name)
	}
	return out, nil
}

// engineMetrics reports the fleet engine's own instruments, summed over
// instances and averaged per round (the instruments accumulate across
// the rounds of one run).
func engineMetrics(met []*obs.FleetMetrics, rounds int) []metric {
	var events, drains, parks, overflow, admitted, shed, delayed, flushSum, flushN int64
	for _, m := range met {
		events += m.Events.Value()
		drains += m.BlockingDrains.Value()
		parks += m.Parks.Value()
		overflow += m.OverflowParks.Value()
		admitted += m.Admitted.Value()
		shed += m.Shed.Value()
		delayed += m.Delayed.Value()
		flushSum += m.FlushSize.Sum()
		flushN += m.FlushSize.Count()
	}
	per := func(v int64) float64 { return float64(v) / float64(rounds) }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	return []metric{
		{"fleet.events", per(events), "count", rounds},
		{"fleet.blocking_drains_per_event", ratio(drains, events), "ratio", rounds},
		{"fleet.parks_per_event", ratio(parks, events), "ratio", rounds},
		{"fleet.flush_size_mean", ratio(flushSum, flushN), "count", int(flushN)},
		{"fleet.overflow_parks", per(overflow), "count", rounds},
		{"fleet.admitted", per(admitted), "count", rounds},
		{"fleet.shed", per(shed), "count", rounds},
		{"fleet.delayed", per(delayed), "count", rounds},
	}
}

// finishTrace writes the run's spans beside the other artifacts.
func finishTrace(tr *tracer, cfg runConfig, workload string) error {
	if tr == nil || cfg.Artifacts == "" {
		return nil
	}
	return tr.finish(filepath.Join(cfg.Artifacts, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, cfg.Seed)))
}
