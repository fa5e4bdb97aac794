package regions

import (
	"fmt"
	"slices"

	"repro/internal/core"
)

// RelaxTables stores the control relaxation regions R^r_q of §3.3 for a
// set ρ of relaxation step counts. For each state i, level q and step
// count r ∈ ρ it stores the two interval bounds of Proposition 3:
//
//	upper(i, q, r) = tD,r(s_i, q) = min_{i≤j≤i+r-1} tD(s_j, q) − Cwc(a_i..a_{j-1}, q)
//	lower(i, q, r) = tD(s_{i+r-1}, q+1)            (TimeNegInf for q = qmax)
//
// so that (s_i, t) ∈ R^r_q  ⇔  lower < t ≤ upper. This is 2·|A|·|Q|·|ρ|
// integers — 99,876 for the paper's encoder (§4.1). States too close to
// the end of the cycle to relax r steps carry an empty interval
// (upper = TimeNegInf).
//
// The payload is one contiguous slab laid out [i][q][ri]{lower, upper},
// so the descending ρ probe of Steps reads one run of 2·|ρ| adjacent
// words instead of 2·|ρ| separate rows.
type RelaxTables struct {
	td  *TDTable
	rho []int
	iv  []core.Time // iv[at(i, q, ri)] = lower, iv[at(i, q, ri)+1] = upper
}

// BuildRelaxTables derives the relaxation tables from a tD table and a
// relaxation-step set rho. rho is sorted ascending, deduplicated, and must
// contain 1 (R^1_q = R_q guarantees the relaxed manager always finds a
// step count). Construction is O(n·|Q|·|ρ|) using a sliding-window
// minimum (monotonic deque) per (q, r) over e_q(j) = tD(s_j, q) − Wq[j].
func BuildRelaxTables(td *TDTable, rho []int) (*RelaxTables, error) {
	rt, err := newRelaxTables(td, rho)
	if err != nil {
		return nil, err
	}
	for q := 0; q < td.nq; q++ {
		fillRelaxLevel(rt, q)
	}
	return rt, nil
}

// newRelaxTables sorts and deduplicates rho, checks it and allocates the
// (zero) slab: the validation and layout shared by the serial and
// parallel builders.
func newRelaxTables(td *TDTable, rho []int) (*RelaxTables, error) {
	r := slices.Clone(rho)
	slices.Sort(r)
	r = slices.Compact(r)
	if err := checkRho(r); err != nil {
		return nil, err
	}
	return allocRelaxTables(td, r), nil
}

// allocRelaxTables allocates zeroed tables for td and a checked rho.
func allocRelaxTables(td *TDTable, rho []int) *RelaxTables {
	return &RelaxTables{td: td, rho: rho, iv: make([]core.Time, 2*td.sys.NumActions()*td.nq*len(rho))}
}

// checkRho enforces the shape of every table's ρ: non-empty, positive,
// strictly increasing and starting at 1. The builders apply it after
// normalising their argument; the loader applies it to the payload as
// is, so a bundle can never carry a step set the builder would refuse
// (a zero step would let the relaxed manager grant Steps = 0).
func checkRho(rho []int) error {
	if len(rho) == 0 {
		return fmt.Errorf("regions: empty relaxation set")
	}
	for k, r := range rho {
		if r <= 0 {
			return fmt.Errorf("regions: non-positive relaxation step %d", r)
		}
		if k > 0 && r <= rho[k-1] {
			return fmt.Errorf("regions: relaxation set %v is not strictly increasing", rho)
		}
	}
	if rho[0] != 1 {
		return fmt.Errorf("regions: relaxation set must contain 1 (R¹_q = R_q)")
	}
	return nil
}

// fillRelaxLevel computes every ρ row of level q: one sliding-window
// minimum pass per r over e(j) = tD(s_j, q) − Wq[j], whose window minima
// give the upper bounds after adding back Wq[i]. It writes only level q's
// entries of the slab, so levels may be filled concurrently.
func fillRelaxLevel(rt *RelaxTables, q int) {
	td := rt.td
	sys := td.sys
	n := sys.NumActions()
	lq := core.Level(q)
	e := make([]core.Time, n)
	for j := range e {
		if tdv := td.TD(j, lq); tdv >= core.TimeInf {
			e[j] = core.TimeInf
		} else {
			e[j] = tdv - sys.WCPrefix(j, lq)
		}
	}
	// Monotonic deque of indices with increasing e values, kept in
	// dq[head:tail]; every index is pushed once per pass.
	dq := make([]int, n)
	for ri, r := range rt.rho {
		head, tail := 0, 0
		for j := 0; j < n; j++ {
			for tail > head && e[dq[tail-1]] >= e[j] {
				tail--
			}
			dq[tail] = j
			tail++
			i := j - r + 1 // window [i, j] has length r
			if i < 0 {
				continue
			}
			if dq[head] < i {
				head++
			}
			k := rt.at(i, lq, ri)
			if q == td.nq-1 {
				rt.iv[k] = core.TimeNegInf
			} else {
				rt.iv[k] = td.TD(i+r-1, lq+1)
			}
			if m := e[dq[head]]; m >= core.TimeInf {
				rt.iv[k+1] = core.TimeInf
			} else {
				rt.iv[k+1] = m + sys.WCPrefix(i, lq)
			}
		}
		// States that cannot accommodate r further actions carry an
		// empty interval.
		for i := max(n-r+1, 0); i < n; i++ {
			k := rt.at(i, lq, ri)
			rt.iv[k], rt.iv[k+1] = core.TimeNegInf, core.TimeNegInf
		}
	}
}

// MustBuildRelaxTables is BuildRelaxTables that panics on error.
func MustBuildRelaxTables(td *TDTable, rho []int) *RelaxTables {
	rt, err := BuildRelaxTables(td, rho)
	if err != nil {
		panic(err)
	}
	return rt
}

// at returns the slab index of the (lower, upper) pair for state i,
// level q and the ri-th element of ρ.
func (rt *RelaxTables) at(i int, q core.Level, ri int) int {
	return ((i*rt.td.nq+int(q))*len(rt.rho) + ri) * 2
}

// Rho returns the (sorted, deduplicated) relaxation-step set.
func (rt *RelaxTables) Rho() []int { return rt.rho }

// TDTable returns the quality-region table the relaxation tables extend.
func (rt *RelaxTables) TDTable() *TDTable { return rt.td }

// Interval returns the R^r_q interval bounds for state i and the ri-th
// element of ρ: (s_i, t) ∈ R^r_q ⇔ lo < t ≤ hi.
func (rt *RelaxTables) Interval(i int, q core.Level, ri int) (lo, hi core.Time) {
	k := rt.at(i, q, ri)
	return rt.iv[k], rt.iv[k+1]
}

// InRegion reports whether (s_i, t) lies in R^r_q for ρ[ri].
func (rt *RelaxTables) InRegion(i int, tm core.Time, q core.Level, ri int) bool {
	lo, hi := rt.Interval(i, q, ri)
	return lo < tm && tm <= hi
}

// Steps returns the largest r ∈ ρ such that (s_i, t) ∈ R^r_q, trying ρ in
// descending order; it always succeeds with r = 1 when q is the level the
// mixed policy chose at (s_i, t). work counts the probes spent. The
// probed intervals are the 2·|ρ| adjacent words of the (i, q) run.
//
//detlint:hotpath
func (rt *RelaxTables) Steps(i int, tm core.Time, q core.Level) (r, work int) {
	k := rt.at(i, q, 0)
	run := rt.iv[k : k+2*len(rt.rho)]
	for ri := len(rt.rho) - 1; ri >= 0; ri-- {
		work++
		if run[2*ri] < tm && tm <= run[2*ri+1] {
			return rt.rho[ri], work
		}
	}
	// Unreachable when q = Choose(i, tm): R¹_q = R_q contains (i, tm).
	return 1, work
}

// NumEntries returns the 2·|A|·|Q|·|ρ| count of stored integers (§4.1).
func (rt *RelaxTables) NumEntries() int {
	sys := rt.td.sys
	return 2 * sys.NumActions() * sys.NumLevels() * len(rt.rho)
}

// MemoryBytes returns the resident size of the table payload in bytes.
func (rt *RelaxTables) MemoryBytes() int { return rt.NumEntries() * 8 }

// Validate checks structural invariants: R^r_q ⊆ R_q (upper bounds never
// exceed tD(s_i, q), lower bounds never fall below the R_q lower border),
// nesting R^{r'}_q ⊆ R^r_q for r' ≥ r, and an empty R^r_q at every state
// too close to the cycle end to run r more actions.
func (rt *RelaxTables) Validate() error {
	sys := rt.td.sys
	n := sys.NumActions()
	for q := 0; q < sys.NumLevels(); q++ {
		for ri, r := range rt.rho {
			for i := max(n-r+1, 0); i < n; i++ {
				if _, hi := rt.Interval(i, core.Level(q), ri); hi != core.TimeNegInf {
					return fmt.Errorf("regions: R^%d_q%d non-empty at i=%d, %d actions before the cycle end", r, q, i, n-i)
				}
			}
			for i := 0; i+r <= n; i++ {
				lo, hi := rt.Interval(i, core.Level(q), ri)
				rlo, rhi := rt.td.Interval(i, core.Level(q))
				if hi > rhi {
					return fmt.Errorf("regions: R^%d_q%d upper exceeds R_q at i=%d", r, q, i)
				}
				if lo < rlo && lo > core.TimeNegInf {
					return fmt.Errorf("regions: R^%d_q%d lower below R_q at i=%d", r, q, i)
				}
				if ri > 0 {
					plo, phi := rt.Interval(i, core.Level(q), ri-1)
					if hi > phi || (lo < plo && lo > core.TimeNegInf) {
						return fmt.Errorf("regions: R^%d_q%d not nested in R^%d at i=%d", r, q, rt.rho[ri-1], i)
					}
				}
			}
		}
	}
	return nil
}
