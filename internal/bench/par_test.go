package bench

import (
	"bytes"
	"testing"

	"spechint/internal/apps"
)

// withParallelism runs fn at the given pool width, restoring the package
// setting afterwards. The bench package contract is that Parallelism is
// configured once before experiments run; tests in this package do not run
// concurrently with each other, so swapping it here is safe.
func withParallelism(w int, fn func()) {
	old := Parallelism
	Parallelism = w
	defer func() { Parallelism = old }()
	fn()
}

// TestSerialParallelIdentical is the differential determinism check at the
// heart of the fan-out design: every experiment in the registry must report
// byte-identical output with -parallel 1 and a multi-worker pool, both its
// text and, for an experiment with a JSON face, its JSON document. Cells are
// simulated in whatever order the workers reach them; the assembled reports
// must not care.
func TestSerialParallelIdentical(t *testing.T) {
	oldMax := MultiMaxN
	MultiMaxN = 2
	defer func() { MultiMaxN = oldMax }()
	scale := apps.TestScale()

	for _, name := range Names() {
		name := name
		if Registry[name].Heavy && testing.Short() {
			continue
		}
		t.Run(name, func(t *testing.T) {
			render := func(width int) (text, doc []byte) {
				var rep Report
				var err error
				withParallelism(width, func() { rep, err = RunByName(name, scale) })
				if err != nil {
					t.Fatalf("-parallel %d: %v", width, err)
				}
				if Registry[name].JSON {
					doc = goldenJSON(t, rep)
				}
				return []byte(rep.String()), doc
			}
			serial, serialDoc := render(1)
			parallel, parallelDoc := render(4)
			if !bytes.Equal(serial, parallel) {
				t.Fatalf("experiment %s renders differently serial vs parallel:\n--- serial ---\n%s\n--- parallel ---\n%s",
					name, serial, parallel)
			}
			if !bytes.Equal(serialDoc, parallelDoc) {
				t.Fatalf("experiment %s JSON differs serial vs parallel:\n%s\nvs\n%s", name, serialDoc, parallelDoc)
			}
		})
	}
}

// TestSerialParallelTraceIdentical repeats a traced run under both pool
// widths and byte-compares the Chrome trace and metrics exports. Traces
// record virtual (cycle) timestamps only, so the worker count must not leak
// into a single cell's event stream.
func TestSerialParallelTraceIdentical(t *testing.T) {
	render := func() (trace, metrics []byte) {
		tr, _, err := TraceMulti(apps.TestScale(), 2)
		if err != nil {
			t.Fatal(err)
		}
		if trace, err = tr.ChromeTraceJSON(); err != nil {
			t.Fatal(err)
		}
		if metrics, err = tr.MetricsJSON(); err != nil {
			t.Fatal(err)
		}
		return trace, metrics
	}
	var ts, ms, tp, mp []byte
	withParallelism(1, func() { ts, ms = render() })
	withParallelism(4, func() { tp, mp = render() })
	if !bytes.Equal(ts, tp) {
		t.Errorf("Chrome trace differs serial vs parallel (%d vs %d bytes)", len(ts), len(tp))
	}
	if !bytes.Equal(ms, mp) {
		t.Errorf("metrics export differs serial vs parallel (%d vs %d bytes)", len(ms), len(mp))
	}
}
