package main

import (
	"fmt"
	"math"

	"spechint/internal/analysis"
	"spechint/internal/apps"
	"spechint/internal/asm"
	"spechint/internal/bench"
	"spechint/internal/clients"
	"spechint/internal/cluster"
	"spechint/internal/core"
	"spechint/internal/fsim"
	"spechint/internal/multi"
	"spechint/internal/spechint"
	"spechint/internal/trace"
	"spechint/internal/vm"
	"spechint/internal/workload"
)

// A workload runs every one of its cells once per pass. Each cell builds
// its own inputs, so every simulated file cache starts empty (the paper's
// cold-cache runs) and a pass's setup time is the full cost of its inputs.
// README.md gives the reason for each workload.
type workloadDef struct {
	name string
	pass func(p *pass, seed int64)
}

var workloads = []workloadDef{
	{"paper", runPaper},
	{"replay", runReplay},
	{"shared", runShared},
	{"service", runService},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// seededScale is scale s with every workload spec's seed offset by seed,
// the way apps.Scale.WithProcess offsets them but without a path prefix.
// Seed 0 of the full scale is the canonical scale whose results
// EXPERIMENTS.md records.
func seededScale(s apps.Scale, seed int64) apps.Scale {
	s.Agrep.Seed += seed
	s.Gnuld.Seed += seed
	s.XDS.Seed += seed
	s.Postgres.Seed += seed
	s.LSM.Seed += seed
	s.MLShard.Seed += seed
	return s
}

var paperApps = []apps.App{apps.Agrep, apps.Gnuld, apps.XDataSlice}

var paperModes = []core.Mode{core.ModeNoHint, core.ModeSpeculating, core.ModeManual, core.ModeStatic}

// fig3PaperGain is the speculating improvement the paper reports in
// Figure 3, in percent.
var fig3PaperGain = map[apps.App]float64{apps.Agrep: 69, apps.Gnuld: 29, apps.XDataSlice: 70}

// fig3Canon is the canonical-seed elapsed time, in simulated seconds rounded
// to two places, of each paper app's original and speculating runs
// (EXPERIMENTS.md, Figure 3).
var fig3Canon = map[apps.App][2]float64{
	apps.Agrep:      {3.68, 0.99},
	apps.Gnuld:      {21.32, 11.78},
	apps.XDataSlice: {122.77, 31.45},
}

// cellMaxCycles bounds every simulation; a cell that runs past it fails.
// It is core.DefaultConfig's bound, applied to groups and shards too.
const cellMaxCycles = 1 << 42

// buildSource populates fs with app's dataset and returns the original and
// manually hinted program sources.
func buildSource(p *pass, fs *fsim.FS, app apps.App, sc apps.Scale) (orig, man string) {
	var tr *trace.Trace
	p.span("workload.build", func() {
		switch app {
		case apps.Agrep:
			names := sc.Agrep.Build(fs)
			orig = apps.AgrepSource(names, sc.Agrep.Pattern, false)
			man = apps.AgrepSource(names, sc.Agrep.Pattern, true)
		case apps.Gnuld:
			names := sc.Gnuld.Build(fs)
			orig = apps.GnuldSource(names, sc.Gnuld, false)
			man = apps.GnuldSource(names, sc.Gnuld, true)
		case apps.XDataSlice:
			name, slices := sc.XDS.Build(fs)
			orig = apps.XDSSource(name, slices, false)
			man = apps.XDSSource(name, slices, true)
		case apps.LSM:
			tr = sc.LSM.Build(fs)
		case apps.MLShard:
			tr = sc.MLShard.Build(fs)
		}
	})
	p.fileBytes += fsBytes(fs)
	if tr != nil {
		p.span("trace.source", func() {
			orig = trace.Source(tr, false)
			man = trace.Source(tr, true)
		})
	}
	return orig, man
}

func fsBytes(fs *fsim.FS) int64 {
	var n int64
	for _, name := range fs.Names() {
		if f, ok := fs.Lookup(name); ok {
			n += f.Size()
		}
	}
	return n
}

// soloCell builds and runs one app in one mode the way bench.Run does, but
// through the public calls one by one so each is timed as its own span.
func soloCell(p *pass, app apps.App, mode core.Mode, sc apps.Scale) (*core.RunStats, error) {
	fs := fsim.New(8192)
	workload.SetBenchLayout(fs)
	origSrc, manSrc := buildSource(p, fs, app, sc)

	src := origSrc
	if mode == core.ModeManual {
		src = manSrc
	}
	var prog *vm.Program
	var err error
	p.span("asm.assemble", func() { prog, err = asm.Assemble(src) })
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig(mode)
	switch mode {
	case core.ModeSpeculating:
		p.span("spechint.transform", func() { prog, _, err = spechint.Transform(prog, spechint.DefaultOptions()) })
	case core.ModeStatic:
		var rep *analysis.SynthReport
		p.span("analysis.synth", func() { rep, err = bench.Synth(&apps.Bundle{App: app, FS: fs, Original: prog}) })
		if err == nil {
			cfg.StaticHints = bench.StaticHints(rep)
		}
	}
	if err != nil {
		return nil, err
	}
	var sys *core.System
	p.span("core.new", func() { sys, err = core.New(cfg, prog, fs) })
	if err != nil {
		return nil, err
	}
	var st *core.RunStats
	p.runSpan("core.run", func() { st, err = sys.Run() })
	if err != nil {
		return nil, err
	}
	p.sim.addRun(st)
	return detach(st), nil
}

// detach copies run statistics out of their system. The *RunStats a run
// returns points into its core.System, so keeping it would keep the whole
// simulated system, datasets included, alive into later cells.
func detach(st *core.RunStats) *core.RunStats {
	c := *st
	return &c
}

// soloGrid runs every app in every mode, checks each app's modes against
// its original run, and returns the speculating gain per app (NaN where a
// cell failed).
func soloGrid(p *pass, workload string, sc apps.Scale, seed int64, appList []apps.App, modes []core.Mode) map[apps.App]float64 {
	gains := map[apps.App]float64{}
	for _, app := range appList {
		runs := make([]*core.RunStats, len(modes))
		for i, mode := range modes {
			st, err := runCell(p, cellID(workload, app.String(), mode.String(), seed), func() (*core.RunStats, error) {
				st, err := soloCell(p, app, mode, sc)
				if err == nil {
					err = checkBuckets(st)
				}
				if err == nil && i > 0 && runs[0] != nil {
					err = checkSameResult(runs[0], st)
				}
				if err == nil && workload == "paper" && seed == 0 && i < 2 {
					err = checkCanon(app, mode, st)
				}
				return st, err
			})
			if err == nil {
				runs[i] = st
			}
		}
		gains[app] = math.NaN()
		if runs[0] != nil && runs[1] != nil {
			gains[app] = bench.Improvement(runs[0], runs[1])
		}
	}
	return gains
}

func meanOver(gains map[apps.App]float64, appList []apps.App) float64 {
	sum := 0.0
	for _, a := range appList {
		sum += gains[a]
	}
	return sum / float64(len(appList))
}

func runPaper(p *pass, seed int64) {
	gains := soloGrid(p, "paper", seededScale(apps.FullScale(), seed), seed, paperApps, paperModes)
	p.endToEnd("sim_spec_gain_pct", meanOver(gains, paperApps), "%")
	errSum := 0.0
	for _, a := range paperApps {
		errSum += math.Abs(gains[a] - fig3PaperGain[a])
	}
	p.endToEnd("sim_fig3_error_pp", errSum/float64(len(paperApps)), "pp")
}

var replayApps = []apps.App{apps.LSM, apps.MLShard}

// replayScale is apps.SweepScale's LSM and MLShard, about a sixth of full
// scale, with MLShard's full-scale 16 KB batches, which its speculating
// gain depends on. A full-scale pass takes about 11 s of host CPU, too few
// passes for a steady median within a run.
func replayScale(seed int64) apps.Scale {
	s := seededScale(apps.SweepScale(), seed)
	s.MLShard.ReadSize = apps.FullScale().MLShard.ReadSize
	return s
}

func runReplay(p *pass, seed int64) {
	sc := replayScale(seed)
	gains := soloGrid(p, "replay", sc, seed, replayApps, []core.Mode{core.ModeNoHint, core.ModeSpeculating})
	p.endToEnd("sim_spec_gain_pct", meanOver(gains, replayApps), "%")
}

var sharedApps = []apps.App{apps.Agrep, apps.Gnuld, apps.LSM, apps.Postgres}

// sharedScale shrinks the four group members' inputs to about a sixteenth
// of full scale, and sharedCacheBlocks shrinks the shared cache to a
// quarter, so the four processes still contend for it. A full-scale group
// pass takes about 8 s of host CPU: too few passes, and too few inputs (see
// sharedInputs), for a steady run.
func sharedScale(seed int64) apps.Scale {
	s := seededScale(apps.FullScale(), seed)
	s.Agrep.NumFiles = 25
	s.Gnuld.NumFiles = 20
	s.LSM.TableSize = 256 << 10
	s.LSM.ChunkSize = 32 << 10
	s.LSM.Lookups = 8
	s.Postgres.OuterTuples = 4000
	s.Postgres.InnerTuples = 8000
	return s
}

const sharedCacheBlocks = 384

// sharedInputs is how many inputs a shared pass runs the group on: input k
// of seed n is sharedScale(n*sharedInputs + k). How the four processes
// interleave moves one group's host CPU time by about 9% (standard
// deviation over seeds, at equal host speed), and one seed's group can
// cost 1.5 times another's, in ways no one app's input predicts. With four
// inputs twice this size, runs at five seeds still spread by 15% (IQR over
// median); with eight, runs at ten seeds spread by 7%.
const sharedInputs = 8

// runShared runs the group on each of its inputs, and reports the mean of
// the inputs' speculating gains.
func runShared(p *pass, seed int64) {
	sum := 0.0
	for k := int64(0); k < sharedInputs; k++ {
		sum += sharedGroups(p, seed*sharedInputs+k)
	}
	p.endToEnd("sim_spec_gain_pct", sum/sharedInputs, "%")
}

// sharedGroups runs the four-process group on one input once all original
// and once all speculating, and returns the speculating gain in makespan
// (NaN if a cell failed). The program cache inside apps.BuildOn is emptied
// first so each group pays for its own assembly and transform.
func sharedGroups(p *pass, seed int64) float64 {
	sc := sharedScale(seed)
	var groups [2]*multi.Result
	for i, mode := range []core.Mode{core.ModeNoHint, core.ModeSpeculating} {
		res, err := runCell(p, cellID("shared", "group", mode.String(), seed), func() (*multi.Result, error) {
			apps.ResetProgramCache()
			cfg := multi.DefaultConfig()
			cfg.MaxCycles = cellMaxCycles
			cfg.TIP.CacheBlocks = sharedCacheBlocks
			specs := make([]multi.ProcSpec, len(sharedApps))
			for j, a := range sharedApps {
				specs[j] = multi.ProcSpec{App: a, Mode: mode}
			}
			var g *multi.Group
			var err error
			p.span("multi.new", func() { g, err = multi.NewGroup(cfg, sc, specs) })
			if err != nil {
				return nil, err
			}
			var res *multi.Result
			p.runSpan("multi.run", func() { res, err = g.Run() })
			if err != nil {
				return nil, err
			}
			p.sim.addGroup(res)
			if err := checkGroup(res); err != nil {
				return res, err
			}
			for j := range res.Procs {
				res.Procs[j].Stats = detach(res.Procs[j].Stats)
			}
			if i > 0 && groups[0] != nil {
				return res, checkSameGroup(groups[0], res)
			}
			return res, nil
		})
		if err == nil {
			groups[i] = res
		}
	}
	if groups[0] == nil || groups[1] == nil {
		return math.NaN()
	}
	return bench.Improvement(&core.RunStats{Elapsed: groups[0].Makespan}, &core.RunStats{Elapsed: groups[1].Makespan})
}

// servicePopulation is an open-loop population offered above the four
// shards' capacity: each client is a Poisson process of sessions with
// exponential think times, reading files drawn by a flat Zipf popularity
// (the overload experiment's shape, at four times its client count for
// twice its shards).
func servicePopulation(seed int64) clients.Config {
	return clients.Config{
		N: 192, Sessions: 8,
		Files: 64, FileBlocks: 64, BlockSize: 8192,
		SessionBlocks: 32, ReadBlocks: 4,
		ArrivalMean: 1_000_000, ThinkMean: 20_000,
		ZipfS: 1.01, ZipfV: 1, Seed: 1777 + seed,
	}
}

const serviceShards = 4

func runService(p *pass, seed int64) {
	res, err := runCell(p, cellID("service", "cluster", fmt.Sprintf("%dshards", serviceShards), seed), func() (*cluster.Result, error) {
		var pop *clients.Population
		var err error
		p.span("clients.generate", func() { pop, err = clients.Generate(servicePopulation(seed)) })
		if err != nil {
			return nil, err
		}
		// Every shard's corpus replica shares one file-sized buffer.
		p.fileBytes += pop.Cfg.FileBlocks * pop.Cfg.BlockSize
		cfg := cluster.OverloadConfig(serviceShards)
		cfg.MaxCycles = cellMaxCycles
		var cl *cluster.Cluster
		p.span("cluster.new", func() { cl, err = cluster.New(cfg, pop) })
		if err != nil {
			return nil, err
		}
		var res *cluster.Result
		p.runSpan("cluster.run", func() { res, err = cl.Run() })
		if err != nil {
			return nil, err
		}
		p.sim.addCluster(res)
		return res, checkService(res, pop)
	})
	if err != nil {
		return
	}
	p.endToEnd("sim_p99_ms", float64(bench.Summarize(res.Latencies).P99)/core.CPUHz*1000, "ms")
	p.endToEnd("sim_goodput_rps", res.Throughput(), "1/s")
	p.endToEnd("sim_failed_read_pct", pct(res.FailedReads, res.Reads+res.FailedReads), "%")
}

func cellID(workload, app, mode string, seed int64) string {
	return fmt.Sprintf("%s/%s/%s/seed=%d", workload, app, mode, seed)
}

func pct(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}
