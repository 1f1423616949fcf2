package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// seqsumInputs writes the ten data/partN files examples/progs/seqsum.s reads
// and returns the directory to pass as -dir.
func seqsumInputs(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "data"), 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		data := bytes.Repeat([]byte("x"), 20000+i*1000)
		if err := os.WriteFile(filepath.Join(dir, "data", fmt.Sprintf("part%d", i)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestExitCodes drives every exit code the package comment documents.
func TestExitCodes(t *testing.T) {
	const seqsum = "../../examples/progs/seqsum.s"
	inputs := seqsumInputs(t)
	tmp := t.TempDir()
	exit3 := writeFile(t, tmp, "exit3.s", ".text\nmain: movi r1, 3\n    syscall exit\n")
	badTrace := writeFile(t, tmp, "bad.trace", "open a\nread 0\nclose\n")

	cases := []struct {
		name   string
		args   []string
		code   int
		stderr string // substring the diagnostics must carry
	}{
		{"original run", []string{"-file", seqsum, "-dir", inputs, "-q"}, 0, "exit 0"},
		{"static mode", []string{"-file", seqsum, "-dir", inputs, "-q", "-mode", "static"}, 0, "static hints"},
		{"missing source", []string{"-file", filepath.Join(tmp, "none.s")}, 1, "no such file"},
		{"malformed trace", []string{"-trace-file", badTrace}, 1, "trace: line 2:"},
		{"unknown mode", []string{"-file", seqsum, "-mode", "bogus"}, 2, `unknown mode "bogus"`},
		{"NaN fault rate", []string{"-file", seqsum, "-faults", "rate=NaN"}, 2, "rate NaN"},
		{"no program", nil, 2, "exactly one of -file or -trace-file"},
		{"both programs", []string{"-file", seqsum, "-trace-file", badTrace}, 2, "exactly one of"},
		{"unknown flag", []string{"-bogus"}, 2, "not defined"},
		{"deadline", []string{"-file", seqsum, "-dir", inputs, "-deadline", "1000"}, 3, "deadline exceeded"},
		{"program exits nonzero", []string{"-file", exit3}, 4, "exit 3"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != c.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, c.code, stderr.String())
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

// TestCaptureReplay captures seqsum's read stream and replays the trace in
// speculating mode. Replay programs exit with their read digest, so the
// replay reports 0 or the reserved "program exited nonzero" code 4, never a
// tool error.
func TestCaptureReplay(t *testing.T) {
	inputs := seqsumInputs(t)
	capture := filepath.Join(t.TempDir(), "cap.trace")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-file", "../../examples/progs/seqsum.s", "-dir", inputs, "-q", "-capture", capture},
		&stdout, &stderr); code != 0 {
		t.Fatalf("capture run exit %d:\n%s", code, stderr.String())
	}
	stderr.Reset()
	if code := run([]string{"-trace-file", capture, "-mode", "spec", "-q"}, &stdout, &stderr); code != 0 && code != 4 {
		t.Fatalf("replay exit %d, want 0 or 4:\n%s", code, stderr.String())
	}
}
