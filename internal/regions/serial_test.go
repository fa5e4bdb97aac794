package regions

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestRelaxTablesSerialisationRoundTrip(t *testing.T) {
	sys := randSys(40, core.RandomSystemConfig{Actions: 22, DeadlineEvery: 6})
	tab := BuildTDTable(sys)
	rt := MustBuildRelaxTables(tab, []int{1, 3, 7})
	var buf bytes.Buffer
	n, err := rt.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	loaded, err := LoadRelaxTables(&buf, tab)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Rho(); len(got) != 3 || got[2] != 7 {
		t.Fatalf("rho = %v", got)
	}
	for q := core.Level(0); q <= sys.QMax(); q++ {
		for ri := range rt.Rho() {
			for i := 0; i < sys.NumActions(); i++ {
				lo1, hi1 := rt.Interval(i, q, ri)
				lo2, hi2 := loaded.Interval(i, q, ri)
				if lo1 != lo2 || hi1 != hi2 {
					t.Fatalf("interval mismatch at q=%v ri=%d i=%d", q, ri, i)
				}
			}
		}
	}
	// The loaded tables must drive a manager identically.
	m1 := NewRelaxedManager(rt)
	m2 := NewRelaxedManager(loaded)
	for i := 0; i < sys.NumActions(); i++ {
		d1 := m1.Decide(i, 3*core.Microsecond)
		d2 := m2.Decide(i, 3*core.Microsecond)
		if d1 != d2 {
			t.Fatalf("decisions diverge at %d: %+v vs %+v", i, d1, d2)
		}
	}
}

func TestLoadRelaxTablesRejectsMismatch(t *testing.T) {
	sys := randSys(41, core.RandomSystemConfig{Actions: 22, DeadlineEvery: 6})
	other := randSys(42, core.RandomSystemConfig{Actions: 10, DeadlineEvery: 4})
	tab := BuildTDTable(sys)
	rt := MustBuildRelaxTables(tab, []int{1, 2})
	var buf bytes.Buffer
	if _, err := rt.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRelaxTables(bytes.NewReader(buf.Bytes()), BuildTDTable(other)); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if _, err := LoadRelaxTables(strings.NewReader("{"), tab); err == nil {
		t.Fatal("truncated JSON accepted")
	}
	// Corrupt payload shape: right dims, wrong row length.
	mangled := strings.Replace(buf.String(), `"rho":[1,2]`, `"rho":[1,2,3]`, 1)
	if _, err := LoadRelaxTables(strings.NewReader(mangled), tab); err == nil {
		t.Fatal("inconsistent rho accepted")
	}
	// Right shape, but a step set BuildRelaxTables refuses: a zero step
	// would grant Steps = 0, unsorted or repeated steps break the
	// descending probe, and without 1 no grant is guaranteed.
	for _, rho := range []string{`[0,2]`, `[2,1]`, `[1,1]`, `[2,3]`} {
		mangled := strings.Replace(buf.String(), `"rho":[1,2]`, `"rho":`+rho, 1)
		if _, err := LoadRelaxTables(strings.NewReader(mangled), tab); err == nil {
			t.Errorf("rho %s accepted", rho)
		}
	}
}

// TestLoadRelaxTablesRejectsInvalidIntervals: Steps trusts the loaded
// intervals, so a payload that breaks R^r_q ⊆ R_q or grants r steps
// where fewer than r actions remain must be rejected at load time.
func TestLoadRelaxTablesRejectsInvalidIntervals(t *testing.T) {
	sys := randSys(41, core.RandomSystemConfig{Actions: 22, DeadlineEvery: 6})
	tab := BuildTDTable(sys)
	var buf bytes.Buffer
	if _, err := MustBuildRelaxTables(tab, []int{1, 2}).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	n := sys.NumActions()
	if tab.TD(0, 0).IsInf() {
		t.Fatal("fixture needs a finite tD(s_0, q0)")
	}
	var j relaxTablesJSON
	for _, c := range []struct {
		name   string
		mutate func()
	}{
		{"upper above R_q", func() { j.Upper[0][1][0] = int64(tab.TD(0, 0)) + 1 }},
		{"grant past the end", func() { j.Upper[0][1][n-1], j.Lower[0][1][n-1] = 0, -1 }},
	} {
		j = relaxTablesJSON{}
		if err := json.Unmarshal(buf.Bytes(), &j); err != nil {
			t.Fatal(err)
		}
		c.mutate()
		mangled, err := json.Marshal(j)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := LoadRelaxTables(bytes.NewReader(mangled), tab); err == nil {
			t.Errorf("%s: invalid intervals accepted", c.name)
		}
	}
}

// TestLoadTDTableRejectsNonMonotone: the binary-search Choose is only
// correct on q/i-monotone tables, so a corrupt or hand-edited bundle
// payload must be rejected at load time, not misdecide at run time.
func TestLoadTDTableRejectsNonMonotone(t *testing.T) {
	sys := randSys(43, core.RandomSystemConfig{Actions: 12, DeadlineEvery: 3})
	tab := BuildTDTable(sys)
	var buf bytes.Buffer
	if _, err := tab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Sanity: the untouched payload loads.
	if _, err := LoadTDTable(bytes.NewReader(buf.Bytes()), sys); err != nil {
		t.Fatal(err)
	}
	// Swap two levels of one state: tD becomes increasing in q there.
	var j struct {
		Actions int       `json:"actions"`
		Levels  int       `json:"levels"`
		TD      [][]int64 `json:"td"`
	}
	if err := json.Unmarshal(buf.Bytes(), &j); err != nil {
		t.Fatal(err)
	}
	if j.TD[0][0] == j.TD[j.Levels-1][0] {
		j.TD[j.Levels-1][0] = j.TD[0][0] + 1
	} else {
		j.TD[0][0], j.TD[j.Levels-1][0] = j.TD[j.Levels-1][0], j.TD[0][0]
	}
	mangled, err := json.Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTDTable(bytes.NewReader(mangled), sys); err == nil {
		t.Fatal("non-monotone table accepted at load time")
	}
}
