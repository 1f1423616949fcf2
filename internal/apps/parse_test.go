package apps

import "testing"

func TestParse(t *testing.T) {
	want := map[string]App{
		"agrep": Agrep, "gnuld": Gnuld, "ld": Gnuld, "xds": XDataSlice, "XDataSlice": XDataSlice,
		"postgres": Postgres, "lsm": LSM, "mlshard": MLShard, "ml": MLShard,
	}
	for name, app := range want {
		if got, err := Parse(name); err != nil || got != app {
			t.Errorf("Parse(%q) = %v, %v; want %v", name, got, err, app)
		}
	}
	if _, err := Parse("bogus"); err == nil {
		t.Error(`Parse("bogus") accepted`)
	}
}

func TestScaleNames(t *testing.T) {
	for _, name := range []string{"full", "sweep", "test"} {
		s, err := ParseScale(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := ScaleName(s); got != name {
			t.Errorf("ScaleName(ParseScale(%q)) = %q", name, got)
		}
	}
	custom := TestScale()
	custom.Agrep.NumFiles++
	if got := ScaleName(custom); got != "" {
		t.Errorf("ScaleName(custom) = %q, want empty", got)
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Error(`ParseScale("huge") accepted`)
	}
}
