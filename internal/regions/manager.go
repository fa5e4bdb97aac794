package regions

import (
	"repro/internal/core"
)

// SymbolicManager is the quality-region Quality Manager of §4.1: at each
// state it picks the quality from the pre-computed tD table
// (Proposition 2), replacing the numeric manager's O(n−i) policy
// evaluation per level with a handful of table reads — a binary search
// over the state's contiguous row of |Q| entries. It still runs before
// every action (Steps = 1). The table is immutable, so one table drives
// any number of managers (and therefore fleet streams) without locks.
type SymbolicManager struct {
	tab *TDTable
}

// NewSymbolicManager builds the quality-region manager from a tD table.
func NewSymbolicManager(tab *TDTable) *SymbolicManager {
	return &SymbolicManager{tab: tab}
}

// Name implements core.Manager.
func (m *SymbolicManager) Name() string { return "symbolic" }

// Table exposes the underlying tD table (for diagnostics and plots).
func (m *SymbolicManager) Table() *TDTable { return m.tab }

// Decide implements core.Manager. Work is the number of table probes.
//
//detlint:hotpath
func (m *SymbolicManager) Decide(i int, t core.Time) core.Decision {
	q, work := m.tab.Choose(i, t)
	return core.Decision{Q: q, Steps: 1, Work: work}
}

// RelaxedManager is the control-relaxation Quality Manager of §4.1: it
// picks the quality from the tD table, then probes the relaxation tables
// for the largest r ∈ ρ whose region R^r_q contains the current state,
// and asks the executor to skip the next r−1 manager invocations
// (Decision.Steps = r). Relaxation is conservative: the skipped
// invocations would have chosen the same quality (Proposition 3), which
// the cross-manager equivalence tests verify.
type RelaxedManager struct {
	tab   *TDTable
	relax *RelaxTables
}

// NewRelaxedManager builds the control-relaxation manager.
func NewRelaxedManager(relax *RelaxTables) *RelaxedManager {
	return &RelaxedManager{tab: relax.TDTable(), relax: relax}
}

// Name implements core.Manager.
func (m *RelaxedManager) Name() string { return "relaxed" }

// Tables exposes the relaxation tables (for diagnostics and plots).
func (m *RelaxedManager) Tables() *RelaxTables { return m.relax }

// Decide implements core.Manager: the Choose binary search, then the
// descending probe of the state's ρ intervals. Work counts the tD probes
// plus two per interval probed (each reads both bounds).
//
//detlint:hotpath
func (m *RelaxedManager) Decide(i int, t core.Time) core.Decision {
	q, work := m.tab.Choose(i, t)
	r, w2 := m.relax.Steps(i, t, q)
	return core.Decision{Q: q, Steps: r, Work: work + 2*w2}
}
