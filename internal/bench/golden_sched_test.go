package bench

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"spechint/internal/apps"
	"spechint/internal/core"
	"spechint/internal/multi"
)

// TestGoldenMulti pins the multiprogrammed scheduler: a mixed-mode group at
// test scale in which two processes speculate and the speculating Gnuld
// exits at about half the makespan, so its hint stream is released while
// the other three still run. The file records every process's RunStats, the
// makespan and the substrate-wide stats.
func TestGoldenMulti(t *testing.T) {
	specs := []multi.ProcSpec{
		{App: apps.Agrep, Mode: core.ModeNoHint},
		{App: apps.XDataSlice, Mode: core.ModeSpeculating},
		{App: apps.Postgres, Mode: core.ModeManual},
		{App: apps.Gnuld, Mode: core.ModeSpeculating},
	}
	g, err := multi.NewGroup(multi.DefaultConfig(), apps.TestScale(), specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join(goldenDir, "multi_small.json"), goldenJSON(t, res))
}

// TestGoldenDualProcessor pins the dual-processor scheduling policy: each
// speculating paper application at sweep scale on the four-disk testbed,
// with the speculating thread on a second processor.
func TestGoldenDualProcessor(t *testing.T) {
	for _, app := range Apps {
		app := app
		t.Run(app.String(), func(t *testing.T) {
			st, _, err := Run(app, core.ModeSpeculating, apps.SweepScale(), func(c *core.Config) {
				c.DualProcessor = true
			})
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("dual_%s.json", strings.ToLower(app.String()))
			checkGolden(t, filepath.Join(goldenDir, name), goldenJSON(t, st))
		})
	}
}
