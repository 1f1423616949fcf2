package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spechint/internal/apps"
	"spechint/internal/spechint"
)

// Two invocations of the transform report on the same program must produce
// byte-identical stdout: the only run-varying line (wall-clock timing) goes
// to stderr, so scripts can diff or checksum the report.
func TestReportTransformStdoutDeterministic(t *testing.T) {
	bundle, err := apps.Build(apps.Agrep, apps.TestScale())
	if err != nil {
		t.Fatal(err)
	}
	opt := spechint.DefaultOptions()

	runOnce := func() (stdout, stderr string) {
		var out, errw bytes.Buffer
		if err := reportTransform(&out, &errw, bundle.Original, opt, false); err != nil {
			t.Fatal(err)
		}
		return out.String(), errw.String()
	}

	out1, err1 := runOnce()
	out2, _ := runOnce()
	if out1 != out2 {
		t.Fatalf("stdout differs between runs:\n--- first ---\n%s\n--- second ---\n%s", out1, out2)
	}
	if strings.Contains(out1, "transformed in") {
		t.Fatalf("timing line leaked onto stdout:\n%s", out1)
	}
	if !strings.Contains(err1, "transformed in") {
		t.Fatalf("timing line missing from stderr:\n%s", err1)
	}
	if !strings.Contains(out1, "hint sites:") {
		t.Fatalf("report missing statistics:\n%s", out1)
	}
}

// TestExitCodes drives every exit code the package comment documents.
func TestExitCodes(t *testing.T) {
	const seqsum = "../../examples/progs/seqsum.s"
	bad := filepath.Join(t.TempDir(), "bad.s")
	if err := os.WriteFile(bad, []byte(".text\nmain: frob r1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		args   []string
		code   int
		stdout string // substring stdout must carry (code 0 only)
		stderr string // substring stderr must carry
	}{
		{"transform a file", []string{"-file", seqsum}, 0, "hint sites:", "transformed in"},
		{"lint a file", []string{"-file", seqsum, "-lint"}, 0, "", ""},
		{"synthesize a file", []string{"-file", seqsum, "-synthesize"}, 0, "dynamic verification skipped", ""},
		{"trace-built app", []string{"-app", "lsm"}, 0, "hint sites:", ""},
		{"missing source", []string{"-file", "none.s"}, 1, "", "no such file"},
		{"malformed source", []string{"-file", bad}, 1, "", "asm: line 2"},
		{"unknown app", []string{"-app", "bogus"}, 2, "", `unknown app "bogus"`},
		{"unknown app to synthesize", []string{"-synthesize", "-app", "bogus"}, 2, "", `unknown app "bogus"`},
		{"no program", nil, 2, "", "one of -file or -app"},
		{"unknown flag", []string{"-bogus"}, 2, "", "not defined"},
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
}
