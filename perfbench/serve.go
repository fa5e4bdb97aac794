package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/arrivals"
	"repro/internal/checkpoint"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/profiler"
	"repro/internal/regions"
	"repro/internal/sim"
)

// serve-checkpoint: the qmfleetd ingest loop rebuilt from public calls.
// One feeder reads a generated NDJSON file in a closed loop — arrive
// lines plus a few swap lines between two compiled bundles of the
// paper encoder — decodes each line, builds the stream against the
// active bundle and feeds it to fleet.OpenLive at --serve-workers
// (default 2, the daemon's shape on a 2-vCPU host). Every 64 engine events
// it checkpoints through OpenLive.Checkpoint and checkpoint.Store.Save,
// fsync included; every servePromEvery lines it renders the metric
// registry as a scrape would. Partway through each session it aborts
// the engine and resumes from the newest snapshot (Store.LoadLatest,
// replay of the NDJSON prefix, OpenLive.Restore), as after a crash.
const (
	// defaultServeWorkers is qmfleetd's default pool on a 2-vCPU host;
	// --serve-workers overrides it.
	defaultServeWorkers = 2
	servePromEvery      = 256
	// serveGap is the mean arrival gap: half the paper's frame period,
	// so about four 1–3 frame streams are in service at a time.
	serveGap = profiler.FramePeriod / 2
)

// serveEvent is one NDJSON input line, in qmfleetd's format.
type serveEvent struct {
	Op     string `json:"op"`
	Name   string `json:"name,omitempty"`
	At     int64  `json:"at,omitempty"`
	Cycles int    `json:"cycles,omitempty"`
	Seed   uint64 `json:"seed,omitempty"`
	Bundle string `json:"bundle,omitempty"`
}

type serveInputs struct {
	bundles []*controller.Bundle // as compiled, in the file's activation order
	paths   []string             // bundle files the swap lines name
	events  string               // NDJSON file
	lines   int
	abortAt int // line after which each session aborts and resumes
	levels  int
	fp      string
	every   int64 // engine events between checkpoints
}

// serveSize returns the arrivals per session and the checkpoint
// interval in engine events.
func serveSize(tiny bool) (arrivals int, every int64) {
	if tiny {
		return 40, 4
	}
	return 3000, 64
}

func buildServe(seed uint64, tiny bool, dir string, tr *tracer) (*serveInputs, error) {
	n, every := serveSize(tiny)
	sys := profiler.IPodSystem()
	in := &serveInputs{levels: sys.NumLevels(), every: every}
	// Two controllers for one application: the paper's relaxation set
	// and a coarser retune, so a swap changes every table.
	for j, rho := range [][]int{experiment.PaperRho, {1, 5, 25}} {
		id := tr.begin("controller.Compile", true)
		b, err := controller.Compile(controller.SpecFromSystem(fmt.Sprintf("encoder-%c", 'a'+j), sys, rho))
		tr.end(id)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, fmt.Sprintf("bundle-%c.json", 'a'+j))
		if err := writeBundle(path, b); err != nil {
			return nil, err
		}
		in.bundles = append(in.bundles, b)
		in.paths = append(in.paths, path)
	}
	proc := arrivals.Poisson{MeanGap: serveGap, Seed: fleet.ForSubsystem(seed, "perfbench/serve/arrivals")}
	id := tr.begin("arrivals.Process.Times", true)
	times, err := proc.Times(n)
	tr.end(id)
	if err != nil {
		return nil, err
	}

	// The NDJSON file: n arrivals, with a swap b, a, b at the quarters.
	in.events = filepath.Join(dir, "events.ndjson")
	f, err := os.Create(in.events)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	draw := fleet.ForSubsystem(seed, "perfbench/serve/streams")
	for k := 0; k < n; k++ {
		if k > 0 && k%(n/4) == 0 && k/(n/4) <= 3 {
			enc.Encode(serveEvent{Op: "swap", Bundle: in.paths[(k/(n/4))%2]})
			in.lines++
		}
		r := fleet.DeriveSeed(draw, k)
		enc.Encode(serveEvent{Op: "arrive", Name: fmt.Sprintf("cam-%05d", k), At: int64(times[k]), Cycles: 1 + int(r%3), Seed: r >> 8})
		in.lines++
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	in.abortAt = in.lines * 5 / 8
	in.fp = checkpoint.Fingerprint("perfbench-serve", "relaxed", "admit-all")
	return in, nil
}

// writeBundle stands in for the compiler writing its output: a plain
// write, since the file is an input the serving loop only reads.
func writeBundle(path string, b *controller.Bundle) error {
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// buildServeStream is qmfleetd's stream construction for one arrive line.
func buildServeStream(b *controller.Bundle, ev *serveEvent) (fleet.Stream, error) {
	if ev.Cycles <= 0 {
		return fleet.Stream{}, fmt.Errorf("stream %q: non-positive cycles %d", ev.Name, ev.Cycles)
	}
	sys := b.System()
	return fleet.Stream{
		Name: ev.Name,
		Runner: sim.Runner{
			Sys:      sys,
			Mgr:      b.Relaxed(),
			Exec:     sim.Content{Sys: sys, NoiseAmp: 0.3, Seed: ev.Seed},
			Overhead: sim.IPodOverhead,
			Cycles:   ev.Cycles,
		},
	}, nil
}

// serveSpec replays the whole file into fleet.OpenRunStatsSerial, the
// executable spec the live engine's sealed result must equal.
func serveSpec(in *serveInputs) (*fleet.OpenResult, error) {
	byPath := map[string]*controller.Bundle{}
	for j, p := range in.paths {
		byPath[p] = in.bundles[j]
	}
	active := in.bundles[0]
	var streams []fleet.Stream
	var times []core.Time
	err := scanEvents(in.events, 0, func(_ int, ev *serveEvent) error {
		switch ev.Op {
		case "swap":
			active = byPath[ev.Bundle]
		case "arrive":
			s, err := buildServeStream(active, ev)
			if err != nil {
				return err
			}
			streams = append(streams, s)
			times = append(times, core.Time(ev.At))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return fleet.OpenRunStatsSerial(fleet.OpenConfig{Streams: streams, Arrivals: times})
}

// scanEvents decodes every line after the first skip lines.
func scanEvents(path string, skip int, fn func(line int, ev *serveEvent) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		if line <= skip {
			continue
		}
		var ev serveEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("event %d: %w", line, err)
		}
		if err := fn(line, &ev); err != nil {
			return fmt.Errorf("event %d: %w", line, err)
		}
	}
	return sc.Err()
}

// server is one serving session: the daemon state qmfleetd threads
// through ingest, checkpoint and resume.
type server struct {
	in      *serveInputs
	workers int
	dir     string
	tr      *tracer
	live    *fleet.OpenLive
	store   *checkpoint.Store
	met     *obs.FleetMetrics
	reg     *obs.Registry

	bundles  map[uint64]*controller.Bundle
	order    []uint64 // activation order; last = active
	active   *controller.Bundle
	ingested int // lines consumed: the checkpoint cursor

	streams  []fleet.Stream
	times    []core.Time
	bundleOf []int32

	lastCkpt  int64
	snapshots int
	snapKiB   float64
	ingestNs  []float64
}

func (s *server) newLive() {
	s.live = fleet.NewOpenLive(fleet.OpenLiveConfig{Workers: s.workers, MaxLevels: s.in.levels, Obs: s.met})
}

// loadBundle is qmfleetd's: load and hash the file, keep one bundle per
// hash, and retain a content-addressed copy in the state directory.
func (s *server) loadBundle(path string) (*controller.Bundle, uint64, error) {
	id := s.tr.begin("controller.Load+Hash", false)
	f, err := os.Open(path)
	if err != nil {
		s.tr.end(id)
		return nil, 0, err
	}
	b, err := controller.Load(f)
	f.Close()
	var h uint64
	if err == nil {
		h, err = b.Hash()
	}
	s.tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	if prev, ok := s.bundles[h]; ok {
		return prev, h, nil
	}
	s.bundles[h] = b
	dst := s.bundleFile(h)
	if _, err := os.Stat(dst); os.IsNotExist(err) {
		if err := checkpoint.WriteAtomic(dst, func(w io.Writer) error { _, err := b.WriteTo(w); return err }); err != nil {
			return nil, 0, fmt.Errorf("retain bundle %016x: %w", h, err)
		}
	}
	return b, h, nil
}

func (s *server) bundleFile(h uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("bundle-%016x.json", h))
}

func (s *server) activate(b *controller.Bundle, h uint64) {
	if s.active == b {
		return
	}
	s.active = b
	s.order = append(s.order, h)
}

// ingest applies one event, checkpointing when one is due.
func (s *server) ingest(ev *serveEvent) error {
	s.ingested++
	switch ev.Op {
	case "arrive":
		st, err := buildServeStream(s.active, ev)
		if err != nil {
			return err
		}
		t := core.Time(ev.At)
		id := s.tr.begin("fleet.OpenLive.Feed", false)
		err = s.live.Feed(st, t)
		s.tr.end(id)
		if err != nil {
			return err
		}
		s.streams = append(s.streams, st)
		s.times = append(s.times, t)
		s.bundleOf = append(s.bundleOf, int32(len(s.order)-1))
	case "swap":
		b, h, err := s.loadBundle(ev.Bundle)
		if err != nil {
			return fmt.Errorf("swap: %w", err)
		}
		s.activate(b, h)
	default:
		return fmt.Errorf("unknown op %q", ev.Op)
	}
	if s.live.Events() >= s.lastCkpt+s.in.every {
		return s.checkpoint()
	}
	return nil
}

func (s *server) checkpoint() error {
	id := s.tr.begin("fleet.OpenLive.Checkpoint", false)
	c, err := s.live.Checkpoint()
	s.tr.end(id)
	if err != nil {
		return err
	}
	snap := &checkpoint.Snapshot{
		Meta: checkpoint.Meta{
			Fingerprint:   s.in.fp,
			ArrivalCursor: s.ingested,
			BundleHashes:  append([]uint64(nil), s.order...),
			StreamBundle:  append([]int32(nil), s.bundleOf...),
		},
		Capture: c,
	}
	id = s.tr.begin("checkpoint.Store.Save", false)
	_, err = s.store.Save(snap)
	s.tr.end(id)
	if err != nil {
		return err
	}
	if s.tr != nil {
		// Encode alone, to a discard writer: Save minus the file I/O.
		cw := &byteCounter{}
		id = s.tr.begin("checkpoint.Encode", false)
		err = checkpoint.Encode(cw, snap)
		s.tr.end(id)
		if err != nil {
			return err
		}
		s.snapKiB = max(s.snapKiB, float64(cw.n)/1024)
	}
	s.snapshots++
	s.lastCkpt = c.Events
	return nil
}

type byteCounter struct{ n int64 }

func (c *byteCounter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// resume is qmfleetd's crash recovery: the newest valid snapshot, the
// retained bundles it names, a replay of the consumed NDJSON prefix,
// and OpenLive.Restore.
func (s *server) resume() error {
	id := s.tr.begin("checkpoint.Store.LoadLatest", false)
	snap, _, err := s.store.LoadLatest(s.in.fp)
	s.tr.end(id)
	if err != nil {
		return err
	}
	if snap == nil {
		return fmt.Errorf("resume: no snapshot in %s", s.dir)
	}
	// A restarted daemon holds no bundles: it reloads the retained copies.
	s.bundles, s.active, s.order = map[uint64]*controller.Bundle{}, nil, s.order[:0]
	for _, h := range snap.Meta.BundleHashes {
		b, bh, err := s.loadBundle(s.bundleFile(h))
		if err != nil {
			return fmt.Errorf("resume: bundle %016x: %w", h, err)
		}
		if bh != h {
			return fmt.Errorf("resume: retained bundle %016x re-hashes to %016x", h, bh)
		}
		s.order = append(s.order, h)
		s.active = b
	}
	s.bundleOf = append(s.bundleOf[:0], snap.Meta.StreamBundle...)
	s.streams, s.times = s.streams[:0], s.times[:0]
	k := 0
	err = scanEvents(s.in.events, 0, func(line int, ev *serveEvent) error {
		if line > snap.Meta.ArrivalCursor || ev.Op != "arrive" {
			return nil
		}
		if k >= len(s.bundleOf) {
			return fmt.Errorf("resume: replay found more arrivals than the snapshot's %d", len(s.bundleOf))
		}
		st, err := buildServeStream(s.bundles[s.order[s.bundleOf[k]]], ev)
		if err != nil {
			return err
		}
		s.streams = append(s.streams, st)
		s.times = append(s.times, core.Time(ev.At))
		k++
		return nil
	})
	if err != nil {
		return err
	}
	s.newLive()
	id = s.tr.begin("fleet.OpenLive.Restore", false)
	err = s.live.Restore(snap.Capture, s.streams, s.times)
	s.tr.end(id)
	if err != nil {
		return err
	}
	s.ingested = snap.Meta.ArrivalCursor
	s.lastCkpt = snap.Capture.Events
	return nil
}

// errCrash stops the first ingest pass at the abort line.
var errCrash = errors.New("simulated crash")

// session serves the whole file once, with one abort and resume.
func (s *server) session(progress func()) (*fleet.OpenResult, error) {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, err
	}
	s.store = &checkpoint.Store{Dir: s.dir}
	s.newLive()
	b, h, err := s.loadBundle(s.in.paths[0])
	if err != nil {
		return nil, err
	}
	s.activate(b, h)
	// The first pass stops after the abort line; the second resumes.
	ingestFrom := func(skip int, stopAt int) error {
		return scanEvents(s.in.events, skip, func(line int, ev *serveEvent) error {
			t0 := time.Now()
			if err := s.ingest(ev); err != nil {
				return err
			}
			s.ingestNs = append(s.ingestNs, float64(time.Since(t0)))
			progress()
			if s.ingested%servePromEvery == 0 {
				id := s.tr.begin("obs.Registry.WriteProm", false)
				err := s.reg.WriteProm(io.Discard)
				s.tr.end(id)
				if err != nil {
					return err
				}
			}
			if line == stopAt {
				return errCrash
			}
			return nil
		})
	}
	if err := ingestFrom(0, s.in.abortAt); !errors.Is(err, errCrash) {
		s.live.Abort()
		if err == nil {
			err = errors.New("event file ended before the abort line")
		}
		return nil, err
	}
	s.live.Abort()
	if err := s.resume(); err != nil {
		return nil, err
	}
	if err := ingestFrom(s.ingested, -1); err != nil {
		s.live.Abort()
		return nil, err
	}
	id := s.tr.begin("fleet.OpenLive.Close", false)
	res, err := s.live.Close()
	s.tr.end(id)
	return res, err
}

func runServeCheckpoint(cfg runConfig) (*outcome, error) {
	var tr *tracer
	if cfg.Trace {
		tr = newTracer("serve-checkpoint", cfg.Seed)
	}
	var heap liveHeap
	setup := newSetupTimer(cfg.Tiny, func() (*serveInputs, error) { return buildServe(cfg.Seed, cfg.Tiny, cfg.Dir, tr) })
	in, err := setup.run()
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry("perfbench")
	met := obs.NewFleetMetrics(reg)

	var (
		digests  []uint64
		rate     []float64
		ingestNs []float64
		last     *fleet.OpenResult
		work     workCounts
		srv      *server
	)
	heap.mark()
	phase := beginTimed()
	err = timed(cfg.Seconds, func(i int) error {
		srv = &server{
			in: in, workers: cfg.ServeWorkers, dir: filepath.Join(cfg.Dir, fmt.Sprintf("state-%d", i)), tr: tr,
			met: met, reg: reg, bundles: map[uint64]*controller.Bundle{},
		}
		c := now()
		res, err := srv.session(func() { cfg.Progress.Add(1) })
		_, cpu := c.since()
		if err != nil {
			return fmt.Errorf("session %d: %w", i, err)
		}
		work = countWork(res.Streams)
		rate = append(rate, float64(work.actions)/cpu)
		ingestNs = append(ingestNs, srv.ingestNs...)
		digests = append(digests, cfg.perturb(digestOpen(res)))
		last = res
		heap.mark()
		if err := setup.between(); err != nil {
			return err
		}
		return os.RemoveAll(srv.dir)
	})
	diag := phase.end(rate, cfg.ServeWorkers)
	if err != nil {
		return nil, err
	}
	if err := setup.fill(); err != nil {
		return nil, err
	}
	setupS := setup.secs

	spec, err := serveSpec(in)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	specDigest := digestOpen(spec)
	out := &outcome{
		Attempted: len(ingestNs),
		Diag:      diag,
		Counts:    openCounts(work, &spec.OpenObservations),
	}
	out.Counts["events"] = srv.live.Events()
	out.Counts["snapshots"] = int64(srv.snapshots)
	out.Counts["ingested"] = int64(len(srv.ingestNs))
	perSession := len(ingestNs) / len(digests)
	for _, d := range digests {
		if d != specDigest {
			out.Failed += perSession
		}
	}
	if !cfg.Trace {
		out.Metrics = endToEndMetrics(rate, setupS, heap.mib())
		out.DiagMetrics = latencyMetrics("ingest", ingestNs)
		return out, nil
	}

	// Traced run: the per-layer set.
	id := tr.begin("metrics.SummarizeOpen", false)
	metrics.SummarizeOpen(last.OpenObservations)
	tr.end(id)
	sys := in.bundles[0].System()
	id = tr.begin("regions.build", true)
	tab := regions.BuildTDTableParallel(sys)
	_, err = regions.BuildRelaxTablesParallel(tab, experiment.PaperRho)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	var sample []func() fleet.Stream
	err = scanEvents(in.events, 0, func(_ int, ev *serveEvent) error {
		if ev.Op == "arrive" && len(sample) < 16 {
			ev := *ev
			if _, err := buildServeStream(in.bundles[0], &ev); err != nil {
				return err
			}
			sample = append(sample, func() fleet.Stream {
				s, _ := buildServeStream(in.bundles[0], &ev) // validated above
				return s
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	probe, err := probePerAction(sample, tr)
	if err != nil {
		return nil, err
	}
	sessions := len(rate)
	ms := func(name string, q float64) float64 { return quantile(tr.durations(name, false), q) / 1e6 }
	feed := tr.durations("fleet.OpenLive.Feed", false)
	out.Metrics = append(out.Metrics, probe.metrics(float64(work.decisions)/float64(work.actions))...)
	out.Metrics = append(out.Metrics, engineMetrics([]*obs.FleetMetrics{met}, sessions)...)
	out.Metrics = append(out.Metrics,
		metric{"regions.build_ms", ms("regions.build", 0.5), "ms", 1},
		metric{"controller.compile_ms", ms("controller.Compile", 0.5), "ms", len(tr.durations("controller.Compile", false))},
		metric{"controller.load_ms", ms("controller.Load+Hash", 0.5), "ms", len(tr.durations("controller.Load+Hash", false))},
		metric{"arrivals.times_ms", ms("arrivals.Process.Times", 0.5), "ms", len(setupS)},
		metric{"fleet.feed_us_p50", quantile(feed, 0.5) / 1e3, "us", len(feed)},
		metric{"fleet.feed_us_p99", quantile(feed, 0.99) / 1e3, "us", len(feed)},
		metric{"fleet.capture_ms_p50", ms("fleet.OpenLive.Checkpoint", 0.5), "ms", len(tr.durations("fleet.OpenLive.Checkpoint", false))},
		metric{"fleet.close_ms", ms("fleet.OpenLive.Close", 0.5), "ms", sessions},
		metric{"checkpoint.save_ms_p50", ms("checkpoint.Store.Save", 0.5), "ms", len(tr.durations("checkpoint.Store.Save", false))},
		metric{"checkpoint.save_ms_p90", ms("checkpoint.Store.Save", 0.9), "ms", len(tr.durations("checkpoint.Store.Save", false))},
		metric{"checkpoint.encode_ms_p50", ms("checkpoint.Encode", 0.5), "ms", len(tr.durations("checkpoint.Encode", false))},
		metric{"checkpoint.snapshot_kib_max", srv.snapKiB, "KiB", srv.snapshots},
		metric{"checkpoint.load_latest_ms", ms("checkpoint.Store.LoadLatest", 0.5), "ms", sessions},
		metric{"checkpoint.restore_ms", ms("fleet.OpenLive.Restore", 0.5), "ms", sessions},
		metric{"obs.write_prom_us", quantile(tr.durations("obs.Registry.WriteProm", false), 0.5) / 1e3, "us", len(tr.durations("obs.Registry.WriteProm", false))},
		metric{"metrics.summarize_ms", tr.sum("metrics.SummarizeOpen", false) / 1e6, "ms", 1},
		metric{"bench.traced_actions_per_cpu_s", median(rate), "actions/cpu-s", sessions},
	)
	return out, finishTrace(tr, cfg, "serve-checkpoint")
}
