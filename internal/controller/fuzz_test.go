package controller

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzLoadBundle is the robustness contract of the bundle loader: for
// ANY byte string — torn downloads, truncated writes, bit rot, hostile
// input — Load either returns a usable bundle or an error; it never
// panics, and a bundle it does accept serialises again and carries a
// working system. The corpus seeds a valid bundle plus truncations and
// near-miss corruptions of it so the fuzzer starts at the format's
// interesting edges.
func FuzzLoadBundle(f *testing.F) {
	b, err := Compile(validSpec())
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	whole := buf.Bytes()
	f.Add(whole)
	for _, cut := range []int{0, 1, len(whole) / 3, len(whole) / 2, len(whole) - 1} {
		f.Add(whole[:cut])
	}
	f.Add(bytes.Replace(whole, []byte(`"levels"`), []byte(`"levelz"`), 1))
	f.Add(bytes.Replace(whole, []byte(`:`), []byte(`:-`), 1))
	f.Add([]byte(`{"spec":{"levels":2,"actions":[{"av":[1,2],"wc":[1,2],"deadline":9}]},"tables":{},"relax":{}}`))
	f.Add([]byte("not json"))
	// Well-formed, but the relaxation payload carries a zero step: the
	// loader must refuse the step set BuildRelaxTables would refuse.
	f.Add(bytes.Replace(whole, []byte(`"rho":[1,3,6],"upper"`), []byte(`"rho":[0,3,6],"upper"`), 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := Load(bytes.NewReader(data))
		if err != nil {
			if !strings.HasPrefix(err.Error(), "controller:") {
				t.Fatalf("load error escaped the package's prefix: %v", err)
			}
			return
		}
		if loaded.System() == nil || loaded.Tables() == nil || loaded.RelaxTables() == nil {
			t.Fatal("Load returned a hollow bundle without error")
		}
		if _, err := loaded.WriteTo(&bytes.Buffer{}); err != nil {
			t.Fatalf("accepted bundle does not re-serialise: %v", err)
		}
	})
}
