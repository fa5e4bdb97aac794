package main

import (
	"hash"
	"hash/fnv"
	"math"

	"repro/internal/cluster"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// digest folds a result into one FNV-1a value: every per-stream trace
// scalar and StatsSink accumulator, plus the open-system observations.
// Two results with equal digests are, for the benchmark's purposes, the
// same result; the serial specs produce the reference digests.
type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) u64(v uint64) {
	for i := range d.buf {
		d.buf[i] = byte(v >> (8 * i))
	}
	d.h.Write(d.buf[:])
}

func (d *digest) i64(v int64)   { d.u64(uint64(v)) }
func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }
func (d *digest) str(s string)  { d.u64(uint64(len(s))); d.h.Write([]byte(s)) }
func (d *digest) sum() uint64   { return d.h.Sum64() }
func (d *digest) ints(xs []int) {
	d.u64(uint64(len(xs)))
	for _, x := range xs {
		d.i64(int64(x))
	}
}
func (d *digest) i32s(xs []int32) {
	d.u64(uint64(len(xs)))
	for _, x := range xs {
		d.i64(int64(x))
	}
}

func (d *digest) bool(v bool) {
	if v {
		d.u64(1)
	} else {
		d.u64(0)
	}
}

func (d *digest) trace(tr *sim.Trace) {
	if tr == nil {
		d.u64(0)
		return
	}
	d.u64(1)
	d.str(tr.Manager)
	d.i64(int64(tr.Period))
	d.i64(int64(tr.Cycles))
	d.u64(uint64(len(tr.Records)))
	d.i64(int64(tr.Final))
	d.i64(int64(tr.TotalExec))
	d.i64(int64(tr.TotalOverhead))
	d.i64(int64(tr.TotalIdle))
	d.i64(int64(tr.Decisions))
	d.i64(int64(tr.Misses))
}

func (d *digest) stats(s *sim.StatsSink) {
	if s == nil {
		d.u64(0)
		return
	}
	st := s.State()
	d.u64(1)
	d.ints([]int{st.Records, st.Decisions, st.Misses, st.DeadlineRecords, st.Switches, st.MinQ, st.MaxQ, int(st.LastQ)})
	d.i64(int64(st.TotalExec))
	d.i64(int64(st.TotalOverhead))
	d.f64(st.QualitySum)
	d.f64(st.AbsDeltaSum)
	d.ints(st.QualityHist)
}

func (d *digest) streams(srs []fleet.StreamResult) {
	d.u64(uint64(len(srs)))
	for i := range srs {
		s := &srs[i]
		d.str(s.Name)
		d.bool(s.Err != nil)
		if s.Err != nil {
			d.str(s.Err.Error())
		}
		d.trace(s.Trace)
		d.stats(s.Stats)
	}
}

func (d *digest) observations(o *metrics.OpenObservations) {
	d.u64(uint64(len(o.Lifecycles)))
	for _, lc := range o.Lifecycles {
		d.str(lc.Name)
		d.i64(int64(lc.Arrival))
		d.i64(int64(lc.Admitted))
		d.i64(int64(lc.Departed))
		d.bool(lc.Queued)
		d.bool(lc.Shed)
		d.bool(lc.Failed)
	}
	d.i64(int64(o.MaxBacklog))
	d.f64(o.BacklogIntegral)
	d.i64(int64(o.FirstArrival))
	d.i64(int64(o.End))
	d.i64(int64(o.Final))
}

func (d *digest) open(r *fleet.OpenResult) {
	d.streams(r.Streams)
	d.observations(&r.OpenObservations)
	d.ints([]int{r.Admitted, r.Delayed, r.Shed})
}

func digestFleet(r *fleet.Result) uint64 {
	d := newDigest()
	d.streams(r.Streams)
	return d.sum()
}

func digestOpen(r *fleet.OpenResult) uint64 {
	d := newDigest()
	d.open(r)
	return d.sum()
}

func digestCluster(r *cluster.Result) uint64 {
	d := newDigest()
	d.str(r.Policy)
	d.i32s(r.Assign)
	d.i32s(r.Local)
	d.ints(r.Routed)
	d.u64(uint64(len(r.Instances)))
	for _, inst := range r.Instances {
		d.open(inst)
	}
	d.observations(&r.Global)
	return d.sum()
}

// workCounts are the deterministic work facts of a set of executed
// streams.
type workCounts struct {
	actions, decisions int64
}

func countWork(srs []fleet.StreamResult) workCounts {
	var c workCounts
	for i := range srs {
		if st := srs[i].Stats; st != nil {
			c.actions += int64(st.Records)
			c.decisions += int64(st.Decisions)
		}
	}
	return c
}

// openCounts are the deterministic counts of an open-system result.
func openCounts(w workCounts, o *metrics.OpenObservations) map[string]int64 {
	c := map[string]int64{"actions": w.actions, "decisions": w.decisions, "arrivals": int64(len(o.Lifecycles))}
	for _, lc := range o.Lifecycles {
		if lc.Shed {
			c["shed"]++
		} else {
			c["admitted"]++
		}
		if lc.Queued {
			c["delayed"]++
		}
	}
	return c
}
