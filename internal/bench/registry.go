package bench

import (
	"fmt"
	"sort"

	"spechint/internal/apps"
)

// Report is one experiment's result, computed once. String renders the
// text table; for an experiment with a JSON face (Experiment.JSON) the same
// value, marshalled with encoding/json, is its machine-readable document.
type Report interface{ String() string }

// text is the report of an experiment that has only a text face.
type text string

func (t text) String() string { return string(t) }

// Experiment is one reproducible table or figure.
type Experiment struct {
	Desc  string
	Run   func(scale apps.Scale) (Report, error)
	Heavy bool // involves a parameter sweep (long running)
	JSON  bool // the report marshals to a machine-readable document
}

// suiteExp wraps experiments that share the default-configuration triples.
// The suite is prewarmed across the worker pool so the table formatter
// only reads cached triples.
func suiteExp(fn func(*Suite) (string, error)) func(apps.Scale) (Report, error) {
	return func(scale apps.Scale) (Report, error) {
		s := NewSuite(scale)
		if err := s.Prewarm(); err != nil {
			return nil, err
		}
		out, err := fn(s)
		return text(out), err
	}
}

func scaleExp(fn func(apps.Scale) (string, error)) func(apps.Scale) (Report, error) {
	return func(scale apps.Scale) (Report, error) {
		out, err := fn(scale)
		return text(out), err
	}
}

// jsonExp adapts a sweep builder whose report has a JSON face.
func jsonExp[R Report](fn func(apps.Scale) (R, error)) func(apps.Scale) (Report, error) {
	return func(scale apps.Scale) (Report, error) {
		rep, err := fn(scale)
		if err != nil {
			return nil, err
		}
		return rep, nil
	}
}

// Registry lists every experiment by id.
var Registry = map[string]Experiment{
	"table1":     {Desc: "manual-hint improvements (background)", Run: suiteExp(Table1)},
	"table3":     {Desc: "transformed application statistics", Run: scaleExp(Table3)},
	"fig3":       {Desc: "elapsed time: original vs speculating vs manual", Run: suiteExp(Figure3)},
	"fig4":       {Desc: "overhead with TIP ignoring hints", Run: suiteExp(Figure4)},
	"table4":     {Desc: "hinting statistics", Run: suiteExp(Table4)},
	"table5":     {Desc: "prefetching and caching statistics", Run: suiteExp(Table5)},
	"table6":     {Desc: "performance side-effects", Run: suiteExp(Table6)},
	"table7":     {Desc: "file cache size sweep", Run: scaleExp(Table7), Heavy: true},
	"table8":     {Desc: "original apps vs number of disks", Run: scaleExp(Table8), Heavy: true},
	"fig5":       {Desc: "improvement vs number of disks", Run: scaleExp(Figure5), Heavy: true},
	"fig6":       {Desc: "improvement vs processor/disk speed ratio", Run: scaleExp(Figure6), Heavy: true},
	"regionsize": {Desc: "COW region size ablation (§3.2.1)", Run: scaleExp(RegionSize), Heavy: true},
	"throttle":   {Desc: "cancel throttle on one disk (§5)", Run: scaleExp(Throttle)},
	"mp":         {Desc: "speculation on a second processor (§5 extension)", Run: scaleExp(MultiProcessor), Heavy: true},
	"adaptive":   {Desc: "accuracy-gated erroneous-hint limiter (§5 extension)", Run: scaleExp(AdaptiveLimiter)},
	"join":       {Desc: "Postgres join improvement vs selectivity (Table 1 extension)", Run: scaleExp(JoinSelectivity), Heavy: true},
	"multi": {Desc: "N-process shared-TIP multiprogramming: makespan, throughput, fairness",
		Run: jsonExp(func(s apps.Scale) (*multiReport, error) { return multiSweep(s, MultiMaxN) }), Heavy: true, JSON: true},
	"faults": {Desc: "graceful degradation under injected disk faults (robustness extension)",
		Run: jsonExp(faultsSweep), Heavy: true, JSON: true},
	"static": {Desc: "statically synthesized hints vs original and manual (static-analysis extension)", Run: scaleExp(Static)},
	"cluster": {Desc: "sharded TIP service: throughput, latency tails, fairness vs shard count",
		Run: jsonExp(func(s apps.Scale) (*clusterReport, error) { return clusterSweep(s, clusterShards) }), Heavy: true, JSON: true},
	"overload": {Desc: "overload-safe cluster: admission control, load shedding, shard failover",
		Run: jsonExp(overloadSweep), Heavy: true, JSON: true},
	"replay": {Desc: "trace replay: modern apps in all modes + capture→replay round trip",
		Run: jsonExp(func(s apps.Scale) (*ReplayReport, error) { return replayReport(s, apps.ScaleName(s)) }), JSON: true},
}

// Names returns experiment ids in stable order.
func Names() []string {
	names := make([]string, 0, len(Registry))
	for n := range Registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RunByName runs one experiment by id and returns its report.
func RunByName(name string, scale apps.Scale) (Report, error) {
	e, ok := Registry[name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", name, Names())
	}
	return e.Run(scale)
}
