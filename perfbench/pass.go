package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"syscall"
	"time"

	"spechint/internal/cache"
	"spechint/internal/cluster"
	"spechint/internal/core"
	"spechint/internal/disk"
	"spechint/internal/multi"
	"spechint/internal/tip"
)

// pass is one execution of every cell of a workload. It sums the host time
// of each named call into setup (input building) or run (simulation), both
// as wall time and as the process's CPU time, and when a tracer is attached
// it also keeps every call as a span.
type pass struct {
	durs      map[string]float64 // span name -> host wall seconds, summed over cells
	setupWall float64
	runWall   float64
	setupCPU  float64
	runCPU    float64
	fileBytes int64

	cells int
	// Per cell, in order: the runCPU spent in it, and refCPU just before its
	// simulation call.
	cellRun, cellRef []float64
	curRef           float64
	failures         []string
	sim              simStats
	e2e              []metric // simulated end-to-end metrics, in report order

	tr   *tracer
	cell string // id of the running cell
}

func newPass(tr *tracer) *pass {
	return &pass{durs: map[string]float64{}, tr: tr}
}

// span times one setup call.
func (p *pass) span(name string, fn func()) {
	d, c := p.timed(name, false, fn)
	p.setupWall += d
	p.setupCPU += c
}

// runSpan times one simulation call. Before it the heap is collected, so the
// call does not pay for its setup's garbage, and refCPU gauges the host's
// speed for it. In a traced pass the call carries the pprof label that
// confines the CPU-share table to simulation time.
func (p *pass) runSpan(name string, fn func()) {
	runtime.GC()
	p.curRef = refCPU()
	runtime.GC()
	d, c := p.timed(name, true, fn)
	p.runWall += d
	p.runCPU += c
}

// timed runs fn and returns the wall and process CPU seconds it took.
func (p *pass) timed(name string, run bool, fn func()) (float64, float64) {
	call := fn
	if p.tr != nil {
		if run {
			call = func() { pprof.Do(context.Background(), pprof.Labels(runLabel, "1"), func(context.Context) { fn() }) }
		}
		sp := p.tr.begin(name, p.cell)
		defer p.tr.end(sp)
	}
	cpu0, start := processCPU(), time.Now()
	call()
	d, c := time.Since(start).Seconds(), processCPU()-cpu0
	p.durs[name] += d
	return d, c
}

// processCPU is the user plus system CPU time of the whole process, in
// seconds. Unlike wall time it leaves out time the host gave to other
// work, including time a hypervisor stole from this machine's CPUs.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// runCell runs one cell. The heap is collected and its free pages returned
// to the system first, so no cell pays for the garbage of the one before it
// and the peak resident set does not depend on when the runtime happened to
// release memory. A panic inside the simulator fails the cell rather than
// the benchmark, so the remaining cells still report.
func runCell[T any](p *pass, id string, fn func() (T, error)) (v T, err error) {
	debug.FreeOSMemory()
	p.cells++
	p.cell = id
	run0 := p.runCPU
	p.curRef = refNominalS // kept if the cell fails before its simulation call
	defer func() {
		p.cellRun = append(p.cellRun, p.runCPU-run0)
		p.cellRef = append(p.cellRef, p.curRef)
	}()
	if p.tr != nil {
		defer p.tr.end(p.tr.begin("cell", id))
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
		if err != nil {
			p.failures = append(p.failures, fmt.Sprintf("%s: %v", id, err))
		}
	}()
	return fn()
}

// endToEnd records a simulated end-to-end metric. One whose cells failed
// is left out; the failures are reported instead.
func (p *pass) endToEnd(name string, v float64, unit string) {
	if !math.IsNaN(v) {
		p.e2e = append(p.e2e, metric{name, v, unit})
	}
}

type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// simStats sums the simulated layer counters over a pass's cells. They are
// exact for a given code and seed.
type simStats struct {
	instrs                                          int64
	compute, specOverhead, hintedStall, unhintedStl int64
	restarts                                        int64

	readCalls, hintedReadCalls, prefetchBlocks int64
	hits, partialWaits, misses, unusedPrefetch int64
	crossHintEvicts                            int64
	demandWait                                 int64

	clusterReads, shedParts, retries, readParts, hintedParts int64
	idle, bucketTotal                                        int64
}

func (s *simStats) addProcess(st *core.RunStats) {
	s.instrs += st.OrigInstrs + st.SpecInstrs
	s.compute += st.Buckets.Compute
	s.specOverhead += st.Buckets.SpecOverhead
	s.hintedStall += st.Buckets.HintedStall
	s.unhintedStl += st.Buckets.UnhintedStall
	s.restarts += st.Restarts
}

func (s *simStats) addRun(st *core.RunStats) {
	s.addProcess(st)
	s.addSubstrate(st.Tip, st.Cache, st.Disk)
}

func (s *simStats) addGroup(res *multi.Result) {
	for _, pr := range res.Procs {
		if pr.Stats != nil {
			s.addProcess(pr.Stats)
		}
	}
	s.addSubstrate(res.Tip, res.Cache, res.Disk)
}

func (s *simStats) addCluster(res *cluster.Result) {
	for _, sh := range res.Shards {
		s.addSubstrate(sh.Tip, sh.Cache, sh.Disk)
		s.shedParts += sh.Stats.Shed
		s.readParts += sh.Stats.ReadParts
		s.hintedParts += sh.Stats.HintedParts
		s.idle += sh.Buckets.Idle
		s.bucketTotal += sh.Buckets.Total()
	}
	s.clusterReads += res.Reads
	s.retries += res.Retries
}

func (s *simStats) addSubstrate(t tip.Stats, c cache.Stats, d disk.Stats) {
	s.readCalls += t.ReadCalls
	s.hintedReadCalls += t.HintedReadCalls
	s.prefetchBlocks += t.PrefetchedBlocks()
	s.hits += c.Hits
	s.partialWaits += c.PartialWaits
	s.misses += c.Misses
	s.unusedPrefetch += c.UnusedHint + c.UnusedRA
	s.crossHintEvicts += c.CrossHintEvicts
	s.demandWait += int64(d.DemandWait)
}

// metrics reports the simulated per-layer metrics.
func (s *simStats) metrics() []metric {
	sec := func(cycles int64) float64 { return float64(cycles) / core.CPUHz }
	return []metric{
		{"vm.instrs_m", float64(s.instrs) / 1e6, "M"},
		{"core.compute_s", sec(s.compute), "s"},
		{"core.spec_overhead_s", sec(s.specOverhead), "s"},
		{"core.hinted_stall_s", sec(s.hintedStall), "s"},
		{"core.unhinted_stall_s", sec(s.unhintedStl), "s"},
		{"core.restarts", float64(s.restarts), "count"},
		{"tip.hinted_read_pct", pct(s.hintedReadCalls, s.readCalls), "%"},
		{"tip.prefetch_blocks", float64(s.prefetchBlocks), "count"},
		{"cache.unused_prefetch_pct", pct(s.unusedPrefetch, s.prefetchBlocks), "%"},
		{"cache.hit_pct", pct(s.hits, s.hits+s.partialWaits+s.misses), "%"},
		{"disk.demand_wait_s", sec(s.demandWait), "s"},
		{"cache.cross_hint_evicts", float64(s.crossHintEvicts), "count"},
		{"cluster.reads", float64(s.clusterReads), "count"},
		{"cluster.shed_parts", float64(s.shedParts), "count"},
		{"cluster.retries", float64(s.retries), "count"},
		{"cluster.hinted_part_pct", pct(s.hintedParts, s.readParts), "%"},
		{"cluster.idle_pct", pct(s.idle, s.bucketTotal), "%"},
	}
}
