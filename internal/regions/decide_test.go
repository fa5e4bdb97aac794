package regions

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

// probeTimes collects the adversarial time samples for state i: every
// border a decision could key on (tD row values and, when rt is non-nil,
// relaxation interval borders) plus its two neighbours, so off-by-one
// border handling cannot hide, plus a spread of ordinary times.
func probeTimes(td *TDTable, rt *RelaxTables, i int, rng *rand.Rand) []core.Time {
	var ts []core.Time
	add := func(v core.Time) {
		if v <= core.TimeNegInf || v >= core.TimeInf {
			return
		}
		ts = append(ts, v-1, v, v+1)
	}
	sys := td.Sys()
	for q := 0; q < sys.NumLevels(); q++ {
		add(td.TD(i, core.Level(q)))
		if rt != nil {
			for ri := range rt.Rho() {
				lo, hi := rt.Interval(i, core.Level(q), ri)
				add(lo)
				add(hi)
			}
		}
	}
	max := td.TD(i, 0)
	if !max.IsInf() && max > 0 {
		for k := 0; k < 8; k++ {
			ts = append(ts, core.Time(rng.Int63n(int64(max)+1)))
		}
	}
	ts = append(ts, 0, -5, core.TimeInf-1)
	return ts
}

// refDecide is the decision read off the region definitions alone: the
// level is the one whose quality region R_q contains (s_i, t) (qmin when
// t is past every region), and the relaxation grant is the largest r ∈ ρ
// whose R^r_q contains it (1 when none does). Work is the binary search's
// probe count over the |Q|-entry row plus two words per ρ interval the
// descending probe reads. rt == nil gives the symbolic decision.
func refDecide(td *TDTable, rt *RelaxTables, i int, tm core.Time) core.Decision {
	nq := td.Sys().NumLevels()
	q, best := core.Level(0), -1
	for l := 0; l < nq; l++ {
		if td.InRegion(i, tm, core.Level(l)) {
			q, best = core.Level(l), l
		}
	}
	// The search keeps the largest qualifying level; its probes depend
	// only on where that border sits in the row.
	work := 0
	for lo, hi := 0, nq-1; lo <= hi; {
		mid := (lo + hi) / 2
		work++
		if mid <= best {
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	if rt == nil {
		return core.Decision{Q: q, Steps: 1, Work: work}
	}
	steps := 1
	probes := len(rt.Rho())
	for ri := len(rt.Rho()) - 1; ri >= 0; ri-- {
		if rt.InRegion(i, tm, q, ri) {
			steps, probes = rt.Rho()[ri], len(rt.Rho())-ri
			break
		}
	}
	return core.Decision{Q: q, Steps: steps, Work: work + 2*probes}
}

// TestQuickRelaxedDecideMatchesReference: on random bundles the relaxed
// manager's full decision — quality, relaxation grant AND Work — equals
// the reference read off the region definitions, at every region border,
// its neighbours and a spread of ordinary times. Work equality is what
// keeps overhead accounting, and so traces, pinned.
func TestQuickRelaxedDecideMatchesReference(t *testing.T) {
	rho := []int{1, 2, 4, 8}
	f := func(seed int64, a, b, c byte) bool {
		sys := qsys(seed, a, b, c)
		td := BuildTDTable(sys)
		rt := MustBuildRelaxTables(td, rho)
		m := NewRelaxedManager(rt)
		rng := rand.New(rand.NewSource(seed ^ 0x5f5f))
		for i := 0; i < sys.NumActions(); i++ {
			for _, tm := range probeTimes(td, rt, i, rng) {
				if got, want := m.Decide(i, tm), refDecide(td, rt, i, tm); got != want {
					t.Logf("state %d t=%v: Decide %+v, reference %+v", i, tm, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSymbolicDecideMatchesReference is the same property for the
// pure quality-region manager (Steps ≡ 1, Work = Choose probes only).
func TestQuickSymbolicDecideMatchesReference(t *testing.T) {
	f := func(seed int64, a, b, c byte) bool {
		sys := qsys(seed, a, b, c)
		td := BuildTDTable(sys)
		m := NewSymbolicManager(td)
		rng := rand.New(rand.NewSource(seed ^ 0x1bd1))
		for i := 0; i < sys.NumActions(); i++ {
			for _, tm := range probeTimes(td, nil, i, rng) {
				if got, want := m.Decide(i, tm), refDecide(td, nil, i, tm); got != want {
					t.Logf("state %d t=%v: Decide %+v, reference %+v", i, tm, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestDecideAllocationFree: steady-state Decide must not touch the heap
// for either table manager, or the fleet hot path would lose its
// 0 allocs/op guarantee.
func TestDecideAllocationFree(t *testing.T) {
	sys := core.RandomSystem(rand.New(rand.NewSource(4)), core.RandomSystemConfig{Actions: 60, Levels: 6, DeadlineEvery: 4})
	rt := MustBuildRelaxTables(BuildTDTable(sys), []int{1, 2, 5})
	for _, m := range []core.Manager{NewRelaxedManager(rt), NewSymbolicManager(rt.TDTable())} {
		avg := testing.AllocsPerRun(200, func() {
			for i := 0; i < sys.NumActions(); i++ {
				m.Decide(i, core.Time(i)*1000)
			}
		})
		if avg != 0 {
			t.Fatalf("%s Decide allocates %v times per sweep, want 0", m.Name(), avg)
		}
	}
}
