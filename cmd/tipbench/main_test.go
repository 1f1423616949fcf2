package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExitCodes drives every exit code the package comment documents. Usage
// errors are caught before any experiment runs, so they print nothing on
// stdout.
func TestExitCodes(t *testing.T) {
	tmp := t.TempDir()
	badBaseline := filepath.Join(tmp, "bad.json")
	if err := os.WriteFile(badBaseline, []byte(`{"experiment": "multi"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(tmp, "out.json")

	cases := []struct {
		name   string
		args   []string
		code   int
		stdout string // substring stdout must carry (code 0 only)
		stderr string // substring stderr must carry
	}{
		{"list", []string{"-list"}, 0, "replay", ""},
		{"one experiment", []string{"-exp", "table3", "-scale", "test"}, 0, "==== table3 ====", ""},
		{"missing baseline", []string{"-check", filepath.Join(tmp, "none.json"), "-scale", "test"}, 1, "", "no such file"},
		{"baseline without max_n", []string{"-check", badBaseline, "-scale", "test"}, 1, "", "missing max_n"},
		{"unwritable json", []string{"-exp", "cluster", "-scale", "test", "-json", filepath.Join(tmp, "no", "f.json")}, 1, "", "no such file"},
		{"unknown experiment", []string{"-exp", "bogus"}, 2, "", `unknown experiment "bogus"`},
		{"unknown experiment after a valid one", []string{"-exp", "table3,bogus", "-scale", "test"}, 2, "", `unknown experiment "bogus"`},
		{"unknown scale", []string{"-scale", "huge"}, 2, "", `unknown scale "huge"`},
		{"zero parallelism", []string{"-parallel", "0"}, 2, "", "-parallel must be >= 1"},
		{"unknown flag", []string{"-cluster"}, 2, "", "not defined"},
		{"json without a json face", []string{"-exp", "table3", "-scale", "test", "-json", out}, 2, "", "-json needs exactly one"},
		{"json with two experiments", []string{"-exp", "cluster,replay", "-scale", "test", "-json", out}, 2, "", "-json needs exactly one"},
		{"unknown trace app", []string{"-exp", "table3", "-scale", "test", "-trace-json", out, "-trace-app", "bogus"}, 2, "", `unknown app "bogus"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != c.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, c.code, stderr.String())
			}
			if !strings.Contains(stdout.String(), c.stdout) {
				t.Errorf("stdout lacks %q:\n%s", c.stdout, stdout.String())
			}
			if !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("stderr lacks %q:\n%s", c.stderr, stderr.String())
			}
			if c.code == 2 && stdout.Len() > 0 {
				t.Errorf("usage error wrote to stdout:\n%s", stdout.String())
			}
		})
	}
	if _, err := os.Stat(out); err == nil {
		t.Error("a rejected -json request still wrote its file")
	}
}

// TestJSONIsTheReport checks that -json writes the same run the text table
// came from, in the committed canon's bytes: the test-scale replay report is
// bench/golden/replay_small.json.
func TestJSONIsTheReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "replay.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "replay", "-scale", "test", "-parallel", "1", "-json", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr.String())
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../bench/golden/replay_small.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("-json file differs from the replay canon (%d vs %d bytes)", len(got), len(want))
	}
	var doc struct {
		Points []struct {
			App  string `json:"app"`
			Mode string `json:"mode"`
		} `json:"points"`
	}
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatal(err)
	}
	for _, p := range doc.Points {
		if !strings.Contains(stdout.String(), p.App) || !strings.Contains(stdout.String(), p.Mode) {
			t.Errorf("text table lacks the JSON row %s/%s:\n%s", p.App, p.Mode, stdout.String())
		}
	}
}
