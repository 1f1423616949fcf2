// Command tipbench regenerates the paper's evaluation: it runs any (or all)
// of the tables and figures from "Automatic I/O Hint Generation through
// Speculative Execution" (OSDI '99) on the simulated testbed and prints
// paper-style tables.
//
// Usage:
//
//	tipbench -list
//	tipbench -exp fig3
//	tipbench -exp static       # statically synthesized hints vs original/manual
//	tipbench -exp table4,table5 -scale sweep
//	tipbench -exp all          # everything, including the heavy sweeps
//	tipbench -exp quick        # everything except the heavy sweeps
//	tipbench -exp multi -multimax 4 -json BENCH_multi.json
//	tipbench -exp replay -scale test -json BENCH_replay.json  # trace-replay grid + round trip
//	tipbench -exp table4 -trace-json trace.json -trace-app gnuld
//	tipbench -exp multi -trace-json trace.json   # trace a speculating group
//	tipbench -exp fig5 -parallel 4               # bound the worker pool
//	tipbench -check bench/results/BENCH_multi.json
//
// Every experiment runs once and prints its text table. With -json, the
// single experiment named by -exp must have a machine-readable face (multi,
// faults, cluster, overload, replay); the same run is also written to the
// file as JSON.
//
// Exit codes:
//
//	0  every requested experiment ran (and -check passed)
//	1  an experiment, the -check comparison or a file write failed
//	2  usage error: an unknown flag, experiment, scale or app, or a -json
//	   request that does not name exactly one experiment with a JSON face;
//	   flags and the experiment list are validated before anything runs
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"spechint/internal/apps"
	"spechint/internal/bench"
	"spechint/internal/core"
	"spechint/internal/obs"
)

// checkTolPct is the makespan drift tolerance of -check, in percent.
const checkTolPct = 10

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes reports to stdout and
// diagnostics to stderr, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tipbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expFlag   = fs.String("exp", "quick", "experiment id(s), comma separated; or 'all' / 'quick'")
		scaleFlag = fs.String("scale", "full", "workload scale: full, sweep, or test")
		listFlag  = fs.Bool("list", false, "list available experiments")
		multiMax  = fs.Int("multimax", 0, "largest group size for the multi experiment (0 keeps the default)")
		jsonFlag  = fs.String("json", "", "also write the experiment's report as JSON to this file "+
			"(exactly one of multi, faults, cluster, overload, replay)")
		traceJSON = fs.String("trace-json", "", "write a cross-layer Chrome trace_event JSON to this file "+
			"(a speculating group when -exp includes multi, else a solo speculating run of -trace-app)")
		traceApp = fs.String("trace-app", "gnuld", "application for the solo -trace-json run: agrep, gnuld, xds, postgres, lsm, mlshard")
		parallel = fs.Int("parallel", runtime.NumCPU(),
			"simulation cells run concurrently (1 = serial; output is byte-identical at any width)")
		checkFlag = fs.String("check", "",
			"run a fresh multi sweep and fail if it regresses from this baseline JSON")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "tipbench: "+format+"\n", a...)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "tipbench: %v\n", err)
		return 1
	}

	if *multiMax > 0 {
		bench.MultiMaxN = *multiMax
	}
	if *parallel < 1 {
		return usage("-parallel must be >= 1, got %d", *parallel)
	}
	bench.Parallelism = *parallel

	if *listFlag {
		fmt.Fprintln(stdout, "available experiments:")
		for _, n := range bench.Names() {
			e := bench.Registry[n]
			heavy := ""
			if e.Heavy {
				heavy = " (heavy sweep)"
			}
			fmt.Fprintf(stdout, "  %-12s %s%s\n", n, e.Desc, heavy)
		}
		return 0
	}

	scale, err := apps.ParseScale(*scaleFlag)
	if err != nil {
		return usage("%v", err)
	}

	if *checkFlag != "" {
		if err := runCheck(*checkFlag, scale); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "check passed: multi sweep matches %s (tolerance %d%%)\n", *checkFlag, checkTolPct)
		return 0
	}

	var names []string
	switch *expFlag {
	case "all":
		names = bench.Names()
	case "quick":
		for _, n := range bench.Names() {
			if !bench.Registry[n].Heavy {
				names = append(names, n)
			}
		}
	default:
		for _, n := range strings.Split(*expFlag, ",") {
			n = strings.TrimSpace(n)
			if _, ok := bench.Registry[n]; !ok {
				return usage("unknown experiment %q (have %s)", n, strings.Join(bench.Names(), ", "))
			}
			names = append(names, n)
		}
	}
	if *jsonFlag != "" && (len(names) != 1 || !bench.Registry[names[0]].JSON) {
		return usage("-json needs exactly one experiment with a JSON face (multi, faults, cluster, overload or replay), got %s",
			strings.Join(names, ","))
	}
	traceMulti := slices.Contains(names, "multi")
	var traceTarget apps.App
	if *traceJSON != "" && !traceMulti {
		if traceTarget, err = apps.Parse(*traceApp); err != nil {
			return usage("-trace-app: %v", err)
		}
	}

	var last bench.Report
	for _, name := range names {
		start := time.Now()
		fmt.Fprintf(stdout, "==== %s ====\n", name)
		rep, err := bench.RunByName(name, scale)
		if err != nil {
			return fail(fmt.Errorf("%s: %v", name, err))
		}
		io.WriteString(stdout, rep.String())
		fmt.Fprintf(stdout, "(%s in %.1fs)\n\n", name, time.Since(start).Seconds())
		last = rep
	}

	if *jsonFlag != "" {
		out, err := json.MarshalIndent(last, "", "  ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*jsonFlag, append(out, '\n'), 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", *jsonFlag)
	}

	if *traceJSON != "" {
		if err := writeTrace(*traceJSON, traceMulti, traceTarget, scale); err != nil {
			return fail(fmt.Errorf("trace: %v", err))
		}
		fmt.Fprintf(stdout, "wrote %s\n", *traceJSON)
	}
	return 0
}

// runCheck reruns the multi sweep at the baseline's own size and fails if
// the result drifted outside tolerance or flipped a who-wins ordering
// (see bench.CheckMulti). Used by make bench-check.
func runCheck(path string, scale apps.Scale) error {
	baseline, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var shape struct {
		MaxN int `json:"max_n"`
	}
	if err := json.Unmarshal(baseline, &shape); err != nil {
		return fmt.Errorf("baseline %s: %v", path, err)
	}
	if shape.MaxN < 1 {
		return fmt.Errorf("baseline %s: missing max_n", path)
	}
	bench.MultiMaxN = shape.MaxN
	rep, err := bench.RunByName("multi", scale)
	if err != nil {
		return err
	}
	fresh, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	return bench.CheckMulti(fresh, baseline, checkTolPct)
}

// writeTrace records one traced run and writes its Chrome trace_event JSON:
// a speculating multi group when the experiment list names multi, otherwise a
// solo speculating run of app.
func writeTrace(path string, forMulti bool, app apps.App, scale apps.Scale) error {
	var tr *obs.Trace
	var err error
	if forMulti {
		n := bench.MultiMaxN
		if n > 4 {
			n = 4 // a readable trace, not the full sweep
		}
		tr, _, err = bench.TraceMulti(scale, n)
	} else {
		tr, _, err = bench.TraceRun(app, core.ModeSpeculating, scale)
	}
	if err != nil {
		return err
	}
	out, err := tr.ChromeTraceJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
