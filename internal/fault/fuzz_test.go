package fault

import "testing"

// FuzzFaultParse is the fault-spec parser's fuzz wall: Parse never panics,
// and every plan it accepts has both injection rates in [0, 1) — including
// specs whose rates parse to NaN, which compare false against any bound.
// The seed corpus below is extended by the committed files under
// testdata/fuzz/FuzzFaultParse.
func FuzzFaultParse(f *testing.F) {
	f.Add("rate=0.01,seed=42")
	f.Add("rate=0.05,burst=3,spike=0.1x8,failn=2")
	f.Add("die=1@5e8,dieshard=0@1e6,brown=1@100-200x4")
	f.Add("rate=NaN")
	f.Add("spike=NaNx8")
	f.Add("rate=1")
	f.Add("")
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			return
		}
		if !(p.Rate >= 0 && p.Rate < 1) {
			t.Fatalf("Parse(%q) accepted rate %g, want [0, 1)", spec, p.Rate)
		}
		if !(p.SpikeRate >= 0 && p.SpikeRate < 1) {
			t.Fatalf("Parse(%q) accepted spike rate %g, want [0, 1)", spec, p.SpikeRate)
		}
	})
}
