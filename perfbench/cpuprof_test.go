package main

import (
	"bytes"
	"context"
	"runtime/pprof"
	"testing"
	"time"

	"spechint/internal/sim"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"spechint/internal/vm.(*Machine).Run":               "vm",
		"spechint/internal/cache.(*Cache).evictOwnFurthest": "cache",
		"spechint/internal/tip.(*Client).pump.func1":        "tip",
		"spechint/internal/fsim.(*FS).Lookup":               "other",
		"runtime.mapaccess2_fast64":                         "goruntime",
		"internal/runtime/maps.(*Map).getWithKeySmall":      "goruntime",
		"math/rand.(*Rand).Int63":                           "other",
		"main.runCell[...]":                                 "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// A labelled loop over the sim package must come back as sim and runtime
// time only, and unlabelled work must not count.
func TestCPUSharesFromProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiler unavailable: %v", err)
	}
	spin := func(d time.Duration) {
		q := sim.NewQueue()
		fn := func() {}
		for i := 0; i < 512; i++ {
			q.Schedule(sim.Time(i), fn)
		}
		for end := time.Now().Add(d); time.Now().Before(end); {
			for i := 0; i < 10_000; i++ {
				q.Schedule(q.Now()+sim.Time(i%61+1), fn)
				q.RunNext()
			}
		}
	}
	pprof.Do(context.Background(), pprof.Labels(runLabel, "1"), func(context.Context) { spin(400 * time.Millisecond) })
	spin(200 * time.Millisecond) // unlabelled
	pprof.StopCPUProfile()

	shares, samples, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples < 10 {
		t.Skipf("only %d samples", samples)
	}
	if samples > 60 {
		t.Errorf("%d samples counted, want only the ~40 of the labelled 400 ms", samples)
	}
	// The loop's own frames are sim's; the rest is runtime and, under the
	// race detector, its instrumentation. No sample may land in a layer the
	// loop never calls.
	if shares["sim"] == 0 {
		t.Errorf("no sample of %d charged to sim", samples)
	}
	for _, pkg := range []string{"vm", "tip", "cache", "disk", "cow", "core", "multi", "cluster"} {
		if shares[pkg] != 0 {
			t.Errorf("%s share %.1f%%, want 0", pkg, shares[pkg])
		}
	}
	total := 0.0
	for _, pkg := range cpuPackages {
		total += shares[pkg]
	}
	if total < 99.9 || total > 100.1 {
		t.Errorf("shares sum to %.2f%%", total)
	}
}
