package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"spechint/internal/apps"
	"spechint/internal/bench"
	"spechint/internal/clients"
	"spechint/internal/cluster"
	"spechint/internal/core"
	"spechint/internal/multi"
)

// Each output check is fed a doctored copy of a real test-scale result and
// must fail the cell that returns it.

func soloRun(t *testing.T, mode core.Mode) *core.RunStats {
	t.Helper()
	st, _, err := bench.Run(apps.Agrep, mode, apps.TestScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func groupRun(t *testing.T) *multi.Result {
	t.Helper()
	g, err := multi.NewGroup(multi.DefaultConfig(), apps.TestScale(), []multi.ProcSpec{
		{App: apps.Agrep, Mode: core.ModeSpeculating}, {App: apps.Gnuld, Mode: core.ModeSpeculating},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func serviceRun(t *testing.T) (*cluster.Result, *clients.Population) {
	t.Helper()
	cfg := servicePopulation(0)
	cfg.N, cfg.Sessions = 8, 2
	pop, err := clients.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.OverloadConfig(serviceShards), pop)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, pop
}

// failsCell runs check as a cell's output check and reports whether the
// pass counted the cell as failed.
func failsCell(t *testing.T, check func() error) bool {
	t.Helper()
	p := newPass(nil)
	_, _ = runCell(p, "test/cell", func() (struct{}, error) { return struct{}{}, check() })
	return len(p.failures) == 1 && p.cells == 1
}

func TestChecksPassOnRealResults(t *testing.T) {
	orig, spec := soloRun(t, core.ModeNoHint), soloRun(t, core.ModeSpeculating)
	group := groupRun(t)
	svc, pop := serviceRun(t)
	for name, check := range map[string]func() error{
		"buckets": func() error { return checkBuckets(spec) },
		"same":    func() error { return checkSameResult(orig, spec) },
		"group":   func() error { return checkGroup(group) },
		"sameGrp": func() error { return checkSameGroup(group, group) },
		"service": func() error { return checkService(svc, pop) },
	} {
		if failsCell(t, check) {
			t.Errorf("%s: a real result failed its check", name)
		}
	}
}

func TestDoctoredResultsFailTheCell(t *testing.T) {
	orig, spec := soloRun(t, core.ModeNoHint), soloRun(t, core.ModeSpeculating)
	group := groupRun(t)
	svc, pop := serviceRun(t)

	cases := map[string]func() error{
		"exit code differs": func() error {
			d := *spec
			d.ExitCode++
			return checkSameResult(orig, &d)
		},
		"output differs": func() error {
			d := *spec
			d.Output += "x"
			return checkSameResult(orig, &d)
		},
		"buckets do not sum to elapsed": func() error {
			d := *spec
			d.Buckets.Compute++
			return checkBuckets(&d)
		},
		"group process buckets": func() error {
			d := *group
			d.Procs = append([]multi.ProcResult(nil), group.Procs...)
			st := *d.Procs[1].Stats
			st.Buckets.HintedStall--
			d.Procs[1].Stats = &st
			return checkGroup(&d)
		},
		"unhinted cross evictions": func() error {
			d := *group
			d.Cache.UnhintedCrossEvicts = 1
			return checkGroup(&d)
		},
		"group process output differs": func() error {
			d := *group
			d.Procs = append([]multi.ProcResult(nil), group.Procs...)
			st := *d.Procs[0].Stats
			st.ExitCode++
			d.Procs[0].Stats = &st
			return checkSameGroup(group, &d)
		},
		"service conservation": func() error {
			d := *svc
			d.Shards = append([]cluster.ShardResult(nil), svc.Shards...)
			d.Shards[0].Stats.Admitted++
			return checkService(&d, pop)
		},
		"service reads not all accounted": func() error {
			d := *svc
			d.FailedReads++
			return checkService(&d, pop)
		},
		"canonical elapsed differs": func() error {
			d := *orig
			d.Elapsed = 1
			return checkCanon(apps.Agrep, core.ModeNoHint, &d)
		},
		"simulator panics": func() error { panic("doctored") },
	}
	for name, check := range cases {
		if !failsCell(t, check) {
			t.Errorf("%s: the cell was not counted as failed", name)
		}
	}
}

// A failed cell makes the final line report correct=false with the cell in
// the failed count.
func TestFailedCellReachesFinalLine(t *testing.T) {
	p := newPass(nil)
	_, _ = runCell(p, "a", func() (int, error) { return 0, nil })
	_, _ = runCell(p, "b", func() (int, error) { return 0, checkBuckets(&core.RunStats{Elapsed: 5}) })
	res := &result{}
	res.addPass(p)
	var out bytes.Buffer
	if err := res.print(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var final struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatal(err)
	}
	if final.Correct || final.Attempted != 2 || final.Failed != 1 {
		t.Errorf("final line %+v, want correct=false attempted=2 failed=1", final)
	}
}
