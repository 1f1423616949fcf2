package bench

import (
	"encoding/json"
	"path/filepath"
	"testing"

	"spechint/internal/apps"
	"spechint/internal/core"
)

// TestReplayRoundTrip is the capture→replay differential wall: for every
// canonical app, replaying the captured trace must touch the disk with a
// block-for-block identical access sequence, and both runs' stall buckets
// must sum to their elapsed time.
func TestReplayRoundTrip(t *testing.T) {
	for _, app := range Apps {
		app := app
		t.Run(app.String(), func(t *testing.T) {
			t.Parallel()
			rt, err := RoundTrip(app, apps.TestScale())
			if err != nil {
				t.Fatal(err)
			}
			if rt.Reads == 0 {
				t.Fatal("captured no reads; round trip is vacuous")
			}
			if !rt.Exact {
				t.Errorf("replayed disk access sequence diverged (%d reads, %d records)",
					rt.Reads, rt.Records)
			}
			if !rt.BucketsOK {
				t.Error("stall buckets do not sum to elapsed")
			}
		})
	}
}

// TestReplayModernWhoWins pins the headline result: on the readahead-hostile
// modern apps, speculation must beat the original run.
func TestReplayModernWhoWins(t *testing.T) {
	for _, app := range ModernApps {
		app := app
		t.Run(app.String(), func(t *testing.T) {
			t.Parallel()
			orig, _, err := Run(app, core.ModeNoHint, apps.TestScale(), nil)
			if err != nil {
				t.Fatal(err)
			}
			spec, _, err := Run(app, core.ModeSpeculating, apps.TestScale(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if spec.ExitCode != orig.ExitCode {
				t.Fatalf("speculating exit %d != original %d", spec.ExitCode, orig.ExitCode)
			}
			if spec.Elapsed >= orig.Elapsed {
				t.Errorf("speculating (%d cycles) does not beat original (%d)",
					spec.Elapsed, orig.Elapsed)
			}
			if spec.HintedReads == 0 {
				t.Error("speculating run hinted no reads")
			}
		})
	}
}

// replayGoldenPath is the committed canon for the test-scale replay report.
var replayGoldenPath = filepath.Join(goldenDir, "replay_small.json")

// TestGoldenReplay byte-compares the test-scale replay report against the
// committed canon; re-canonize deliberately with:
//
//	go test ./internal/bench -run GoldenReplay -update
func TestGoldenReplay(t *testing.T) {
	rep, err := replayReport(apps.TestScale(), "test")
	if err != nil {
		t.Fatal(err)
	}
	doc := goldenJSON(t, rep)
	checkGolden(t, replayGoldenPath, doc)
	checkReplayDoc(t, doc)
}

// checkReplayDoc asserts the headline shape of a test-scale replay JSON
// document, reading it through its JSON field names as a consumer of
// `tipbench -exp replay -json` would: the schema tag, two modern apps in
// four modes, three round trips, speculation winning on every modern app,
// every cell's stall buckets summing to its elapsed time, and every
// capture→replay pass block-exact over a non-empty read stream.
func checkReplayDoc(t *testing.T, doc []byte) {
	t.Helper()
	var d struct {
		Schema string `json:"schema"`
		Points []struct {
			App         string  `json:"app"`
			Mode        string  `json:"mode"`
			Improvement float64 `json:"improvement_pct"`
			BucketsOK   bool    `json:"buckets_sum_ok"`
		} `json:"points"`
		RoundTrip []struct {
			App       string `json:"app"`
			Reads     int    `json:"reads"`
			Exact     bool   `json:"exact"`
			BucketsOK bool   `json:"buckets_sum_ok"`
		} `json:"roundtrip"`
	}
	if err := json.Unmarshal(doc, &d); err != nil {
		t.Fatal(err)
	}
	if d.Schema != "tipbench-replay/v1" {
		t.Errorf("schema %q, want tipbench-replay/v1", d.Schema)
	}
	if len(d.Points) != 8 || len(d.RoundTrip) != 3 {
		t.Errorf("%d points and %d round trips, want 8 and 3", len(d.Points), len(d.RoundTrip))
	}
	for _, p := range d.Points {
		if p.Mode == "speculating" && p.Improvement <= 0 {
			t.Errorf("%s: speculating improvement %.1f%% is not positive", p.App, p.Improvement)
		}
		if !p.BucketsOK {
			t.Errorf("%s/%s: stall buckets do not sum to elapsed", p.App, p.Mode)
		}
	}
	for _, rt := range d.RoundTrip {
		if !rt.Exact || !rt.BucketsOK || rt.Reads <= 0 {
			t.Errorf("%s: round trip exact=%v buckets_sum_ok=%v reads=%d", rt.App, rt.Exact, rt.BucketsOK, rt.Reads)
		}
	}
}
