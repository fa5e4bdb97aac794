package controller

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/profiler"
	"repro/internal/sim"
)

// validSpec builds a small, feasible spec.
func validSpec() Spec {
	const n, levels = 12, 4
	spec := Spec{Name: "test-app", Levels: levels, Rho: []int{1, 3, 6}}
	for i := 0; i < n; i++ {
		a := ActionSpec{Name: "op", Av: make([]int64, levels), WC: make([]int64, levels)}
		for q := 0; q < levels; q++ {
			a.Av[q] = int64(100+40*q) * 1000 // ns
			a.WC[q] = a.Av[q] * 3 / 2
		}
		spec.Actions = append(spec.Actions, a)
	}
	spec.Actions[n-1].Deadline = int64(n) * 260 * 1000
	return spec
}

func TestCompileValidSpec(t *testing.T) {
	b, err := Compile(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	if b.System().NumActions() != 12 || b.System().NumLevels() != 4 {
		t.Fatalf("compiled dimensions wrong")
	}
	if got := b.RelaxTables().Rho(); len(got) != 3 {
		t.Fatalf("rho = %v", got)
	}
	if b.Spec().Name != "test-app" {
		t.Fatal("spec not retained")
	}
}

func TestCompileRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"no actions", func(s *Spec) { s.Actions = nil }, "no actions"},
		{"one level", func(s *Spec) { s.Levels = 1 }, "levels"},
		{"row length", func(s *Spec) { s.Actions[0].Av = s.Actions[0].Av[:2] }, "entries"},
		{"no deadline", func(s *Spec) { s.Actions[len(s.Actions)-1].Deadline = 0 }, "no deadlines"},
		{"infeasible", func(s *Spec) { s.Actions[len(s.Actions)-1].Deadline = 1 }, "infeasible"},
		{"av above wc", func(s *Spec) { s.Actions[3].Av[1] = s.Actions[3].WC[1] + 1 }, "exceeds"},
		{"bad rho", func(s *Spec) { s.Rho = []int{4} }, "relaxation"},
	}
	for _, c := range cases {
		spec := validSpec()
		c.mutate(&spec)
		_, err := Compile(spec)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestCompileDefaultsRhoToOne(t *testing.T) {
	spec := validSpec()
	spec.Rho = nil
	b, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.RelaxTables().Rho(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("default rho = %v", got)
	}
}

func TestBundleRoundTrip(t *testing.T) {
	b, err := Compile(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Loaded managers must decide identically to the originals.
	sys := b.System()
	rng := rand.New(rand.NewSource(1))
	m1, m2 := b.Relaxed(), loaded.Relaxed()
	s1, s2 := b.Symbolic(), loaded.Symbolic()
	for trial := 0; trial < 300; trial++ {
		i := rng.Intn(sys.NumActions())
		tm := core.Time(rng.Int63n(int64(sys.LastDeadline() * 2)))
		if d1, d2 := m1.Decide(i, tm), m2.Decide(i, tm); d1 != d2 {
			t.Fatalf("relaxed decisions diverge at (%d, %v): %+v vs %+v", i, tm, d1, d2)
		}
		if d1, d2 := s1.Decide(i, tm), s2.Decide(i, tm); d1 != d2 {
			t.Fatalf("symbolic decisions diverge at (%d, %v)", i, tm)
		}
	}
}

// TestBundleHashStableAcrossReload: the hash is a pure function of the
// serialized form — identical across reloads (so a hot swap to a
// reloaded identical bundle is recognisable as a no-op) and different
// for a different spec.
func TestBundleHashStableAcrossReload(t *testing.T) {
	b, err := Compile(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	h1, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := loaded.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("reloaded bundle hashes %016x, original %016x", h2, h1)
	}
	other := validSpec()
	other.Actions[0].Av[1]++
	ob, err := Compile(other)
	if err != nil {
		t.Fatal(err)
	}
	h3, err := ob.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Fatal("distinct bundles collided")
	}
}

// TestBundleWireGolden pins the serialized bytes of two fixed compiled
// bundles by their Hash and length. The golden values were computed with
// the relaxation tables still stored as nested [level][rho][state] rows,
// before the payload became one [state][level][rho] slab, so the test
// proves the re-layout left the wire format, and with it every bundle
// hash a checkpoint records, unchanged.
func TestBundleWireGolden(t *testing.T) {
	random := core.RandomSystem(rand.New(rand.NewSource(7)), core.RandomSystemConfig{Actions: 200, Levels: 6, DeadlineEvery: 9})
	for _, c := range []struct {
		name string
		spec Spec
		hash uint64
		size int
	}{
		{"valid", validSpec(), 0x7bb4ab46ae161ab5, 5118},
		{"random", SpecFromSystem("random", random, []int{1, 4, 9, 20}), 0x615cc9bbb545f7e4, 106630},
	} {
		b, err := Compile(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := b.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		h, err := b.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if h != c.hash || buf.Len() != c.size {
			t.Errorf("%s: hash %016x, %d bytes; golden %016x, %d bytes", c.name, h, buf.Len(), c.hash, c.size)
		}
	}
}

// TestLoadRejectsBadRelaxationSteps: a bundle whose relaxation payload
// carries a step set the compiler would refuse (here a zero step, which
// would let the relaxed manager grant Steps = 0) must not load.
func TestLoadRejectsBadRelaxationSteps(t *testing.T) {
	b, err := Compile(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	const good = `"rho":[1,3,6],"upper"`
	if !strings.Contains(buf.String(), good) {
		t.Fatalf("fixture lacks %s", good)
	}
	mangled := strings.Replace(buf.String(), good, `"rho":[0,3,6],"upper"`, 1)
	if _, err := Load(strings.NewReader(mangled)); err == nil || !strings.Contains(err.Error(), "relaxation tables") {
		t.Fatalf("zero relaxation step: err = %v", err)
	}
}

// TestReloadedBundleSwapIsNoOp: the hot-swap property at the stream
// level. A stream bound against a reloaded copy of the same bundle
// produces a byte-identical trace to one bound against the original —
// so a serving daemon swapping in an identical bundle changes nothing
// for streams admitted after the swap, and in-flight streams (which
// keep their old manager pointer) are untouched by construction.
func TestReloadedBundleSwapIsNoOp(t *testing.T) {
	b, err := Compile(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	run := func(bb *Bundle) *sim.Trace {
		return (&sim.Runner{Sys: bb.System(), Mgr: bb.Relaxed(),
			Exec:     sim.Content{Sys: bb.System(), NoiseAmp: 0.4, Seed: 99},
			Overhead: sim.IPodOverhead, Cycles: 6}).MustRun()
	}
	want, got := run(b), run(loaded)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("stream under the reloaded bundle diverged from the original")
	}
}

// TestLoadErrorsNameSectionAndOffset: corrupt bundles must diagnose to
// a section and a byte offset, and truncation must say so.
func TestLoadErrorsNameSectionAndOffset(t *testing.T) {
	b, err := Compile(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	whole := buf.String()

	_, err = Load(strings.NewReader(strings.Replace(whole, `"spec"`, `"spec!`, 1)))
	if err == nil || !strings.Contains(err.Error(), "byte offset") || !strings.Contains(err.Error(), "bundle envelope") {
		t.Fatalf("syntax error lacks section+offset: %v", err)
	}
	_, err = Load(strings.NewReader(strings.Replace(whole, `"levels":4`, `"levels":"four"`, 1)))
	if err == nil || !strings.Contains(err.Error(), "byte offset") {
		t.Fatalf("type error lacks offset: %v", err)
	}
	_, err = Load(strings.NewReader(whole[:len(whole)/2]))
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncation not named: %v", err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Load(strings.NewReader(`{"spec":{"levels":0},"tables":{},"relax":{}}`)); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestSpecFromSystemRoundTrip(t *testing.T) {
	// profiler system → spec → compile → identical decisions.
	sys := profiler.IPodSystem()
	spec := SpecFromSystem("ipod-encoder", sys, []int{1, 10, 20})
	b, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if b.System().NumActions() != sys.NumActions() {
		t.Fatal("action count changed")
	}
	orig := core.NewNumericManager(sys)
	comp := b.Numeric()
	for _, i := range []int{0, 100, 594, 1188} {
		for _, tm := range []core.Time{0, 300 * core.Millisecond, core.Second} {
			if orig.Decide(i, tm).Q != comp.Decide(i, tm).Q {
				t.Fatalf("decision changed at (%d, %v)", i, tm)
			}
		}
	}
}

func TestCompiledControllerRunsSafely(t *testing.T) {
	b, err := Compile(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	trc := (&sim.Runner{Sys: b.System(), Mgr: b.Relaxed(),
		Exec: sim.WorstCase{Sys: b.System()}, Overhead: sim.FreeOverhead, Cycles: 3}).MustRun()
	if trc.Misses != 0 {
		t.Fatalf("compiled controller missed %d deadlines", trc.Misses)
	}
}
