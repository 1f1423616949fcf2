// Command spechint is the binary-modification tool as a CLI: it transforms
// a VM program (an assembly file, or one of the built-in benchmark
// applications) to perform speculative execution for I/O hint generation,
// and reports the paper's Table 3 statistics. It can also run the static
// analyses on their own: -analyze classifies every read call site by how
// much of the file access pattern is statically computable, -lint verifies
// the transform invariants on the generated shadow text, and -synthesize
// compiles the access pattern into confidence-ranked static hints — for the
// built-in apps it then runs the program in static mode and audits every
// synthesized hint against the dynamic read-site statistics (a hint the run
// never consumed is a lint error and a nonzero exit).
//
// Usage:
//
//	spechint -file prog.s [-dis] [-no-stack-opt] [-keep-output]
//	spechint -app agrep|gnuld|xds|postgres|lsm|mlshard [-dis]
//	spechint -app all -lint          # verify the shadow text of every app
//	spechint -app xds -analyze       # static hintability report
//	spechint -app all -synthesize    # synthesize + verify static hints
//
// -app all names the paper's four applications (Agrep, Gnuld, XDataSlice,
// Postgres).
//
// Exit codes:
//
//	0  success
//	1  tool error (unreadable or malformed source, failed transform), lint
//	   findings, or a synthesized hint the dynamic audit found unconsumed
//	2  usage error: an unknown flag or -app name, or neither -file nor -app
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"spechint/internal/analysis"
	"spechint/internal/apps"
	"spechint/internal/asm"
	"spechint/internal/bench"
	"spechint/internal/core"
	"spechint/internal/spechint"
	"spechint/internal/vm"
)

// paperApps is what -app all names.
var paperApps = []apps.App{apps.Agrep, apps.Gnuld, apps.XDataSlice, apps.Postgres}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes reports to stdout and
// diagnostics to stderr, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("spechint", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		file       = flags.String("file", "", "assembly source file to transform")
		app        = flags.String("app", "", "built-in benchmark to transform: agrep, gnuld, xds, postgres, lsm, mlshard, or all")
		dis        = flags.Bool("dis", false, "print the disassembly of the transformed program")
		noStackOpt = flags.Bool("no-stack-opt", false, "disable the stack-copy optimization (check SP-relative accesses too)")
		keepOutput = flags.Bool("keep-output", false, "keep output-routine calls in the shadow code")
		analyze    = flags.Bool("analyze", false, "run the static hintability analysis instead of reporting transform stats")
		lint       = flags.Bool("lint", false, "verify the transform invariants on the shadow text; nonzero exit on findings")
		synthesize = flags.Bool("synthesize", false, "synthesize static hints; for built-in apps, also verify them against a dynamic run")
	)
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var list []apps.App
	switch {
	case *app == "all":
		list = paperApps
	case *app != "":
		a, err := apps.Parse(*app)
		if err != nil {
			fmt.Fprintf(stderr, "spechint: -app: %v\n", err)
			return 2
		}
		list = []apps.App{a}
	}
	if *file == "" && len(list) == 0 {
		fmt.Fprintln(stderr, "spechint: one of -file or -app is required")
		flags.Usage()
		return 2
	}

	opt := spechint.DefaultOptions()
	opt.StackCopyOptimization = !*noStackOpt
	opt.RemoveOutputRoutines = !*keepOutput

	var ok bool
	var err error
	if *synthesize {
		ok, err = runSynthesize(stdout, *file, list)
	} else {
		ok, err = runTransform(stdout, stderr, *file, list, opt, *analyze, *lint, *dis)
	}
	if err != nil {
		fmt.Fprintf(stderr, "spechint: %v\n", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// runTransform handles every mode but -synthesize, over the -file program or
// else each -app program. It returns false when lint found violations.
func runTransform(w, errw io.Writer, file string, list []apps.App, opt spechint.Options, analyze, lint, dis bool) (bool, error) {
	type named struct {
		name string
		prog *vm.Program
	}
	var progs []named
	if file != "" {
		prog, err := assembleFile(file)
		if err != nil {
			return false, err
		}
		progs = append(progs, named{file, prog})
	} else {
		for _, a := range list {
			b, err := apps.Build(a, apps.FullScale())
			if err != nil {
				return false, err
			}
			progs = append(progs, named{a.String(), b.Original})
		}
	}

	ok := true
	for _, np := range progs {
		if len(progs) > 1 {
			fmt.Fprintf(w, "== %s ==\n", np.name)
		}
		clean, err := process(w, errw, np.prog, opt, analyze, lint, dis)
		if err != nil {
			return false, err
		}
		ok = ok && clean
	}
	return ok, nil
}

func assembleFile(path string) (*vm.Program, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return asm.Assemble(string(src))
}

// runSynthesize handles the -synthesize mode. For a -file program it prints
// the confidence-ranked hint report; for built-in apps it also runs each app
// in static mode and audits the synthesized hints against the dynamic
// read-site statistics. It returns false if any hint failed verification.
func runSynthesize(w io.Writer, file string, list []apps.App) (bool, error) {
	if file != "" {
		prog, err := assembleFile(file)
		if err != nil {
			return false, err
		}
		report, err := analysis.Synthesize(prog, analysis.Config{})
		if err != nil {
			return false, err
		}
		fmt.Fprint(w, report.String())
		fmt.Fprintln(w, "(no workload for a -file program: dynamic verification skipped)")
		return true, nil
	}

	// Sweep scale matches the golden dynamic runs in bench/golden.
	scale := apps.SweepScale()
	ok := true
	for _, a := range list {
		if len(list) > 1 {
			fmt.Fprintf(w, "== %s ==\n", a)
		}
		b, err := apps.Build(a, scale)
		if err != nil {
			return false, err
		}
		report, err := bench.Synth(b)
		if err != nil {
			return false, err
		}
		fmt.Fprint(w, report.String())

		st, _, err := bench.Run(a, core.ModeStatic, scale, nil)
		if err != nil {
			return false, err
		}
		findings := report.Verify(bench.DynStats(st))
		if len(findings) == 0 {
			fmt.Fprintf(w, "dynamic verification: ok (%d hints, %d hinted reads, 0 bypassed)\n\n",
				len(report.Hints), st.HintedReads)
			continue
		}
		ok = false
		fmt.Fprint(w, analysis.FormatFindings(b.Original, findings))
		fmt.Fprintln(w)
	}
	return ok, nil
}

// process handles one program; it returns false when lint found violations.
func process(w, errw io.Writer, prog *vm.Program, opt spechint.Options, analyze, lint, dis bool) (bool, error) {
	if analyze {
		report, err := analysis.Classify(prog, analysis.DefaultConfig())
		if err != nil {
			return false, err
		}
		fmt.Fprint(w, report.String())
		if lint {
			fmt.Fprintln(w)
		}
	}

	if !analyze && !lint {
		return true, reportTransform(w, errw, prog, opt, dis)
	}

	if lint {
		out, _, err := spechint.Transform(prog, opt)
		if err != nil {
			return false, err
		}
		findings := analysis.Lint(out, opt)
		fmt.Fprint(w, analysis.FormatFindings(out, findings))
		if dis {
			fmt.Fprintln(w)
			fmt.Fprint(w, asm.Disassemble(out))
		}
		return len(findings) == 0, nil
	}
	return true, nil
}

// reportTransform transforms prog and writes the statistics report to w.
// The wall-clock timing line goes to errw (stderr in main): it varies run to
// run, and keeping it off stdout makes the report byte-identical across
// repeated invocations — scripts can diff or checksum the output.
func reportTransform(w, errw io.Writer, prog *vm.Program, opt spechint.Options, dis bool) error {
	out, st, err := spechint.Transform(prog, opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(errw, "transformed in %v\n", st.Elapsed)
	fmt.Fprintf(w, "  text:            %d -> %d instructions (%d -> %d bytes, +%.0f%%)\n",
		st.OrigInstrs, st.TotalInstrs, st.OrigBytes, st.TotalBytes, st.SizeIncreasePct())
	fmt.Fprintf(w, "  COW checks:      %d inserted, %d SP-relative accesses skipped\n",
		st.ChecksAdded, st.StackSkipped)
	fmt.Fprintf(w, "  control flow:    %d static redirects, %d dynamic-handler sites, %d recognized jump tables\n",
		st.StaticJumps, st.DynamicJumps, st.TablesStatic)
	fmt.Fprintf(w, "  output routines: %d removed from shadow code\n", st.OutputCalls)
	fmt.Fprintf(w, "  hint sites:      %d read calls become hint generators\n", st.HintSites)
	if dis {
		fmt.Fprintln(w)
		fmt.Fprint(w, asm.Disassemble(out))
	}
	return nil
}
