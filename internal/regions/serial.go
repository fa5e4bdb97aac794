package regions

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
)

// tdTableJSON is the wire form of a TDTable. Only the table payload is
// serialised; the system must be supplied again at load time (tables are
// platform- and deadline-specific, and the system is the authority on
// dimensions).
type tdTableJSON struct {
	Actions int       `json:"actions"`
	Levels  int       `json:"levels"`
	TD      [][]int64 `json:"td"` // [level][state]
}

// WriteTo serialises the table as JSON. The wire format stays
// [level][state] (the pre-flattening layout), so bundles written before
// the payload became one contiguous slab load unchanged.
func (t *TDTable) WriteTo(w io.Writer) (int64, error) {
	n := t.sys.NumActions()
	j := tdTableJSON{
		Actions: n,
		Levels:  t.nq,
		TD:      make([][]int64, t.nq),
	}
	for q := 0; q < t.nq; q++ {
		row := make([]int64, n+1)
		for i := 0; i <= n; i++ {
			row[i] = int64(t.td[i*t.nq+q])
		}
		j.TD[q] = row
	}
	cw := &countWriter{w: w}
	err := json.NewEncoder(cw).Encode(j)
	return cw.n, err
}

// LoadTDTable deserialises a table previously written with WriteTo and
// re-binds it to sys, verifying the dimensions match.
func LoadTDTable(r io.Reader, sys *core.System) (*TDTable, error) {
	var j tdTableJSON
	if err := json.NewDecoder(r).Decode(&j); err != nil {
		return nil, fmt.Errorf("regions: decode tD table: %w", err)
	}
	if j.Actions != sys.NumActions() || j.Levels != sys.NumLevels() {
		return nil, fmt.Errorf("regions: table is %d×%d, system is %d×%d",
			j.Actions, j.Levels, sys.NumActions(), sys.NumLevels())
	}
	if len(j.TD) != j.Levels {
		return nil, fmt.Errorf("regions: %d level rows in payload, want %d", len(j.TD), j.Levels)
	}
	t := newTDTable(sys)
	for q, row := range j.TD {
		if len(row) != j.Actions+1 {
			return nil, fmt.Errorf("regions: level %d has %d entries, want %d", q, len(row), j.Actions+1)
		}
		for i, v := range row {
			t.td[i*t.nq+q] = core.Time(v)
		}
	}
	// The binary-search Choose relies on the monotonicity invariants;
	// a hand-edited or corrupt bundle must fail here, not misdecide.
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

type countWriter struct {
	w io.Writer
	n int64
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// relaxTablesJSON is the wire form of a RelaxTables. Like the tD table,
// only the payload travels; the tD table (and through it the system) is
// re-supplied at load time.
type relaxTablesJSON struct {
	Actions int         `json:"actions"`
	Levels  int         `json:"levels"`
	Rho     []int       `json:"rho"`
	Upper   [][][]int64 `json:"upper"` // [level][rhoIdx][state]
	Lower   [][][]int64 `json:"lower"`
}

// WriteTo serialises the relaxation tables as JSON. The wire format
// stays [level][rho][state] (the pre-flattening layout), byte for byte:
// bundle hashes, which checkpoints record, are taken over these bytes.
func (rt *RelaxTables) WriteTo(w io.Writer) (int64, error) {
	j := relaxTablesJSON{
		Actions: rt.td.sys.NumActions(),
		Levels:  rt.td.nq,
		Rho:     rt.rho,
		Upper:   rt.encode(1),
		Lower:   rt.encode(0),
	}
	cw := &countWriter{w: w}
	err := json.NewEncoder(cw).Encode(j)
	return cw.n, err
}

// LoadRelaxTables deserialises relaxation tables written with WriteTo and
// re-binds them to td, verifying dimensions, the step set and the
// structural invariants.
func LoadRelaxTables(r io.Reader, td *TDTable) (*RelaxTables, error) {
	var j relaxTablesJSON
	if err := json.NewDecoder(r).Decode(&j); err != nil {
		return nil, fmt.Errorf("regions: decode relax tables: %w", err)
	}
	sys := td.sys
	if j.Actions != sys.NumActions() || j.Levels != sys.NumLevels() {
		return nil, fmt.Errorf("regions: tables are %d×%d, system is %d×%d",
			j.Actions, j.Levels, sys.NumActions(), sys.NumLevels())
	}
	if err := checkRho(j.Rho); err != nil {
		return nil, err
	}
	// Check both payloads' shapes before allocating, so the slab is
	// never larger than the payload that fills it.
	for _, t := range [][][][]int64{j.Lower, j.Upper} {
		if err := checkWire(t, j.Levels, len(j.Rho), j.Actions); err != nil {
			return nil, err
		}
	}
	rt := allocRelaxTables(td, j.Rho)
	rt.decode(0, j.Lower)
	rt.decode(1, j.Upper)
	// Steps trusts the intervals to be nested inside R_q and empty near
	// the cycle end; a hand-edited or corrupt bundle must fail here.
	if err := rt.Validate(); err != nil {
		return nil, err
	}
	return rt, nil
}

// encode extracts one bound (side 0 lower, 1 upper) in the
// [level][rho][state] wire layout.
func (rt *RelaxTables) encode(side int) [][][]int64 {
	n := rt.td.sys.NumActions()
	out := make([][][]int64, rt.td.nq)
	for q := range out {
		out[q] = make([][]int64, len(rt.rho))
		for ri := range out[q] {
			row := make([]int64, n)
			for i := range row {
				row[i] = int64(rt.iv[rt.at(i, core.Level(q), ri)+side])
			}
			out[q][ri] = row
		}
	}
	return out
}

// checkWire checks a wire-layout bound against the tables' dimensions.
func checkWire(t [][][]int64, nq, nrho, n int) error {
	if len(t) != nq {
		return fmt.Errorf("regions: %d levels in payload, want %d", len(t), nq)
	}
	for q, rows := range t {
		if len(rows) != nrho {
			return fmt.Errorf("regions: level %d has %d rho rows, want %d", q, len(rows), nrho)
		}
		for ri, row := range rows {
			if len(row) != n {
				return fmt.Errorf("regions: level %d rho %d has %d states, want %d", q, ri, len(row), n)
			}
		}
	}
	return nil
}

// decode stores one bound (side 0 lower, 1 upper) from a wire layout
// that checkWire accepted.
func (rt *RelaxTables) decode(side int, t [][][]int64) {
	for q, rows := range t {
		for ri, row := range rows {
			for i, v := range row {
				rt.iv[rt.at(i, core.Level(q), ri)+side] = core.Time(v)
			}
		}
	}
}
