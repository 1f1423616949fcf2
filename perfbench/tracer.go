package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// tracer keeps the spans of a traced pass in memory; they are written out
// once, when the benchmark ends. A span's parent is the span open when it
// began, and every span carries the id of its cell.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indices of the spans still open, innermost last
}

type span struct {
	Name       string
	Cell       string
	Start, End time.Duration // since t0
	Parent     int           // index into spans, -1 for none
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name, cell string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Cell: cell, Start: time.Since(t.t0), Parent: parent})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	t.spans[i].End = time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
}

// chromeEvent is one complete ("X") event of the Chrome trace_event format,
// which Perfetto and chrome://tracing open directly.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`  // microseconds
	Dur  float64           `json:"dur"` // microseconds
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

// writeChrome writes the spans as a Chrome trace_event JSON file. The
// metadata (manifest, CPU shares, tracing overhead) rides in otherData.
func (t *tracer) writeChrome(path string, other map[string]any) error {
	evs := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		parent := ""
		if s.Parent >= 0 {
			parent = t.spans[s.Parent].Name
		}
		evs = append(evs, chromeEvent{
			Name: s.Name, Cat: "perfbench", Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]string{"cell": s.Cell, "parent": parent},
		})
	}
	b, err := json.MarshalIndent(map[string]any{
		"traceEvents":     evs,
		"displayTimeUnit": "ms",
		"otherData":       other,
	}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
