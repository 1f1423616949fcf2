package main

import (
	"fmt"
	"math"

	"spechint/internal/apps"
	"spechint/internal/clients"
	"spechint/internal/cluster"
	"spechint/internal/core"
	"spechint/internal/multi"
)

// The output checks. A cell fails when its simulation returns an error,
// runs past its cycle bound (the simulation reports that as an error), or
// fails one of these.

// checkBuckets: every elapsed cycle is charged to exactly one stall bucket.
func checkBuckets(st *core.RunStats) error {
	if got := st.Buckets.Total(); got != int64(st.Elapsed) {
		return fmt.Errorf("stall buckets sum to %d, elapsed %d", got, st.Elapsed)
	}
	return nil
}

// checkSameResult: hints and speculation change timing only, so every mode
// of one app and seed computes what the original run computes.
func checkSameResult(orig, st *core.RunStats) error {
	if st.ExitCode != orig.ExitCode {
		return fmt.Errorf("%v exit code %d, original %d", st.Mode, st.ExitCode, orig.ExitCode)
	}
	if st.Output != orig.Output {
		return fmt.Errorf("%v output %q differs from original %q", st.Mode, st.Output, orig.Output)
	}
	return nil
}

// checkCanon: at the canonical seed the paper apps' original and
// speculating elapsed times are the ones EXPERIMENTS.md records.
func checkCanon(app apps.App, mode core.Mode, st *core.RunStats) error {
	want := fig3Canon[app][0]
	if mode == core.ModeSpeculating {
		want = fig3Canon[app][1]
	}
	if got := math.Round(st.Seconds()*100) / 100; got != want {
		return fmt.Errorf("%v %v elapsed %.2f s, EXPERIMENTS.md records %.2f s", app, mode, got, want)
	}
	return nil
}

// checkGroup: every process's buckets sum to its elapsed time, and no
// process's unhinted traffic evicted another's hinted blocks.
func checkGroup(res *multi.Result) error {
	for _, pr := range res.Procs {
		if pr.Stats == nil {
			return fmt.Errorf("%s did not finish", pr.Name)
		}
		if err := checkBuckets(pr.Stats); err != nil {
			return fmt.Errorf("%s: %w", pr.Name, err)
		}
	}
	if n := res.Cache.UnhintedCrossEvicts; n != 0 {
		return fmt.Errorf("%d hinted blocks evicted by another process's unhinted traffic", n)
	}
	return nil
}

// checkSameGroup: process i of the speculating group computes what process
// i of the original group computed.
func checkSameGroup(orig, res *multi.Result) error {
	if len(orig.Procs) != len(res.Procs) {
		return fmt.Errorf("group has %d processes, original group %d", len(res.Procs), len(orig.Procs))
	}
	for i, pr := range res.Procs {
		if err := checkSameResult(orig.Procs[i].Stats, pr.Stats); err != nil {
			return fmt.Errorf("%s: %w", pr.Name, err)
		}
	}
	return nil
}

// checkService: the cluster's conservation invariants hold, and every read
// the population attempted was either served or failed.
func checkService(res *cluster.Result, pop *clients.Population) error {
	if err := res.Check(); err != nil {
		return err
	}
	if got := res.Reads + res.FailedReads; got != pop.TotalReads {
		return fmt.Errorf("served %d + failed %d reads != %d attempted", res.Reads, res.FailedReads, pop.TotalReads)
	}
	return nil
}
