// Command specrun runs an assembly program under the simulated testbed in
// any of the four modes, optionally populating a simulated file system from
// a host directory — the fastest way to watch SpecHint work on your own
// program.
//
// Usage:
//
//	specrun -file prog.s                         # original, 4 disks
//	specrun -file prog.s -mode spec              # transform + speculate
//	specrun -file prog.s -mode static            # statically synthesized hints
//	specrun -file prog.s -mode spec -dual        # §5 multiprocessor
//	specrun -file prog.s -dir ./inputs -disks 8  # host files -> sim fs
//	specrun -file prog.s -mode spec -json        # stats as JSON on stdout
//	specrun -file prog.s -faults rate=0.05,seed=7  # inject disk faults
//	specrun -file prog.s -deadline 500000000     # abort after 5e8 cycles (exit 3)
//	specrun -file prog.s -trace-json t.json      # cross-layer trace for chrome://tracing
//	specrun -trace-file app.trace -mode spec     # compile + replay a captured trace
//	specrun -file prog.s -capture out.trace      # record the read stream as a trace
//
// Files from -dir are loaded into the simulated file system under their
// relative paths, so the program's open() calls can name them directly.
//
// Instead of assembly source, -trace-file accepts a captured I/O trace
// (internal/trace line format: open/read/think/close records). The trace is
// compiled into a replay program that runs in any mode; files the trace
// reads that -dir did not provide are synthesized at the right sizes. A
// malformed trace is a tool error: specrun exits 1 and the message carries
// the offending line number ("trace: line N: ...").
//
// Exit codes (tool status and program status are kept separate — the
// simulated program's exit code is reported in the stderr summary and the
// -json document, never as specrun's own):
//
//	0  run completed and the program exited 0
//	1  tool error (bad source, malformed trace, I/O error, simulation failure)
//	2  usage error: an unknown flag, a -mode or -faults value that does not
//	   parse, or -file and -trace-file both present or both absent
//	3  virtual-cycle deadline exceeded
//	4  run completed but the program exited nonzero
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"spechint/internal/analysis"
	"spechint/internal/asm"
	"spechint/internal/bench"
	"spechint/internal/core"
	"spechint/internal/fault"
	"spechint/internal/fsim"
	"spechint/internal/obs"
	"spechint/internal/spechint"
	itrace "spechint/internal/trace"
	"spechint/internal/vm"
	"spechint/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes the program's output and
// any -json document to stdout and diagnostics to stderr, and returns the
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("specrun", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		file   = flags.String("file", "", "assembly source file (this or -trace-file is required)")
		mode   = flags.String("mode", "orig", "orig, spec, manual, or static")
		disks  = flags.Int("disks", 4, "disks in the array")
		cache  = flags.Int("cache", 12, "file cache size in MB")
		dir    = flags.String("dir", "", "host directory to load into the simulated fs")
		dual   = flags.Bool("dual", false, "run speculation on a second processor")
		quiet  = flags.Bool("q", false, "suppress the program's own output")
		trace  = flags.Int("trace", 0, "print up to N timeline events (reads, hints, restarts)")
		jsonF  = flags.Bool("json", false, "emit the run's statistics as JSON on stdout")
		ddline = flags.Int64("deadline", 0, "abort after this many virtual cycles (0 = default budget)")
		faults = flags.String("faults", "", "fault-injection spec, e.g. rate=0.01,seed=42 (keys: "+
			strings.Join(fault.Keys(), ", ")+")")
		traceJSON   = flags.String("trace-json", "", "write the cross-layer trace as Chrome trace_event JSON to this file")
		metricsJSON = flags.String("metrics-json", "", "write the sampled metric time series as JSON to this file")
		traceFile   = flags.String("trace-file", "", "captured I/O trace to compile and replay (instead of -file)")
		captureF    = flags.String("capture", "", "write the run's read stream as a replayable trace to this file")
	)
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(err error) int {
		fmt.Fprintf(stderr, "specrun: %v\n", err)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "specrun: %v\n", err)
		return 1
	}
	if (*file == "") == (*traceFile == "") {
		fmt.Fprintln(stderr, "specrun: exactly one of -file or -trace-file is required")
		flags.Usage()
		return 2
	}
	m, err := core.ParseMode(*mode)
	if err != nil {
		return usage(err)
	}
	var plan *fault.Plan
	if *faults != "" {
		if plan, err = fault.Parse(*faults); err != nil {
			return usage(err)
		}
	}

	// Resolve the program: assembly source, or a trace compiled to a replay
	// program (the manual variant carries the hint oracle).
	var prog *vm.Program
	var replay *itrace.Trace
	if *traceFile != "" {
		data, err := os.ReadFile(*traceFile)
		if err != nil {
			return fail(err)
		}
		if replay, err = itrace.Parse(string(data)); err != nil {
			return fail(err)
		}
		if prog, err = asm.Assemble(itrace.Source(replay, m == core.ModeManual)); err != nil {
			return fail(err)
		}
	} else {
		src, err := os.ReadFile(*file)
		if err != nil {
			return fail(err)
		}
		if prog, err = asm.Assemble(string(src)); err != nil {
			return fail(err)
		}
	}
	cfg := core.DefaultConfig(m)
	if m == core.ModeSpeculating {
		var st spechint.Stats
		prog, st, err = spechint.Transform(prog, spechint.DefaultOptions())
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "spechint: %d -> %d instructions, %d checks, %d hint sites\n",
			st.OrigInstrs, st.TotalInstrs, st.ChecksAdded, st.HintSites)
	}
	if m == core.ModeStatic {
		// Static mode runs the program as loaded, with hints synthesized
		// offline from it and disclosed at start.
		report, err := analysis.Synthesize(prog, analysis.Config{})
		if err != nil {
			return fail(err)
		}
		cfg.StaticHints = bench.StaticHints(report)
		fmt.Fprintf(stderr, "synthesize: %d static hints\n", len(cfg.StaticHints))
	}

	vfs := fsim.New(8192)
	workload.SetBenchLayout(vfs)
	if *dir != "" {
		if err := loadDir(vfs, *dir); err != nil {
			return fail(err)
		}
	}
	if replay != nil {
		// Synthesize any file the trace reads that -dir did not provide.
		if err := itrace.PopulateFS(vfs, replay); err != nil {
			return fail(err)
		}
	}

	cfg.Disk = core.TestbedDisk(*disks)
	cfg.TIP.CacheBlocks = *cache << 20 / cfg.Disk.BlockSize
	cfg.DualProcessor = *dual
	cfg.TraceEvents = *trace > 0
	if *ddline > 0 {
		cfg.MaxCycles = *ddline
	}
	cfg.Faults = plan
	var tr *obs.Trace
	if *traceJSON != "" || *metricsJSON != "" {
		tr = obs.New(obs.Config{})
		cfg.Obs = tr
	}
	var capt *itrace.Capture
	if *captureF != "" {
		capt = &itrace.Capture{}
		cfg.Capture = capt
	}

	sys, err := core.New(cfg, prog, vfs)
	if err != nil {
		return fail(err)
	}
	st, err := sys.Run()
	if errors.Is(err, core.ErrDeadline) {
		fmt.Fprintf(stderr, "specrun: deadline exceeded: the program did not finish within %d virtual cycles (%.3f testbed seconds)\n",
			cfg.MaxCycles, float64(cfg.MaxCycles)/core.CPUHz)
		return 3
	}
	if err != nil {
		return fail(err)
	}

	if *traceJSON != "" {
		if err := writeExport(*traceJSON, tr.ChromeTraceJSON); err != nil {
			return fail(err)
		}
	}
	if *metricsJSON != "" {
		if err := writeExport(*metricsJSON, tr.MetricsJSON); err != nil {
			return fail(err)
		}
	}
	if capt != nil {
		captured := capt.Trace()
		if err := os.WriteFile(*captureF, []byte(itrace.Format(captured)), 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "capture: %d records -> %s\n", len(captured.Recs), *captureF)
	}

	if *jsonF {
		out, err := json.MarshalIndent(struct {
			Mode    string         `json:"mode"`
			Seconds float64        `json:"seconds"`
			Stats   *core.RunStats `json:"stats"`
		}{m.String(), st.Seconds(), st}, "", "  ")
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, string(out))
		return exitForProgram(st.ExitCode)
	}

	if !*quiet && st.Output != "" {
		fmt.Fprint(stdout, st.Output)
		if st.Output[len(st.Output)-1] != '\n' {
			fmt.Fprintln(stdout)
		}
	}
	fmt.Fprintf(stderr, "exit %d in %.3f testbed seconds (%d cycles)\n",
		st.ExitCode, st.Seconds(), st.Elapsed)
	fmt.Fprintf(stderr, "reads %d (%d hinted), stall %.3fs, restarts %d, signals %d\n",
		st.ReadCalls, st.HintedReads,
		float64(st.StallCycles())/core.CPUHz, st.Restarts, st.SpecSignals)
	if plan != nil {
		fmt.Fprintf(stderr, "faults: %d transient, %d spiked, %d dead; tip retries %d, demoted %d; read errors %d, fault restarts %d, degraded %v\n",
			st.Disk.FaultedReqs, st.Disk.SpikedReqs, st.Disk.DeadReqs,
			st.TipFaults.FetchRetries, st.TipFaults.DemotedBlocks,
			st.ReadErrors, st.FaultRestarts, st.Degraded)
	}
	if *trace > 0 {
		fmt.Fprint(stderr, core.FormatTrace(sys.Events(), *trace, sys.DroppedEvents()))
	}
	return exitForProgram(st.ExitCode)
}

// exitForProgram maps the simulated program's exit code onto specrun's own:
// 0 stays 0, anything else becomes the reserved code 4 ("program exited
// nonzero") so the program can never collide with the tool's codes 1-3. The
// program's actual code is in the stderr summary and the -json document.
func exitForProgram(code int64) int {
	if code == 0 {
		return 0
	}
	return 4
}

// writeExport renders one exporter to a file.
func writeExport(path string, render func() ([]byte, error)) error {
	data, err := render()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// loadDir copies a host directory tree into the simulated file system.
func loadDir(vfs *fsim.FS, dir string) error {
	return filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		_, err = vfs.Create(filepath.ToSlash(rel), data)
		return err
	})
}
