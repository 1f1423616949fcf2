package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// BENCHMARK.json at the repository root must name exactly the metrics the
// two kinds of run print, and only workloads this program defines.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not defined", w.Name)
		}
	}

	res := &result{CellRunCPU: [][]float64{{1}}, CellRefCPU: [][]float64{{1}}, PassSetupCPU: []float64{1}}
	sameMetrics(t, "end_to_end", doc.EndToEnd, endToEndMetrics(res))

	var micro []metric
	for _, m := range micros {
		micro = append(micro, metric{m.name + "_ns", 0, "ns"}, metric{m.name + "_allocs", 0, "allocs/op"})
	}
	sameMetrics(t, "per_layer", doc.PerLayer, perLayerMetrics(newPass(nil), 0, nil, micro))
}

func sameMetrics(t *testing.T, list string, doc []struct{ Name, Unit string }, got []metric) {
	t.Helper()
	if len(doc) != len(got) {
		t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", list, len(doc), len(got))
	}
	for i := 0; i < len(doc) && i < len(got); i++ {
		if doc[i].Name != got[i].Name || doc[i].Unit != got[i].Unit {
			t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", list, i, doc[i].Name, doc[i].Unit, got[i].Name, got[i].Unit)
		}
	}
}

// scaledSum takes, per cell, the median over passes of the cell's CPU time
// over the reference kernel's, so a pass on a host slowed down as a whole
// reads the same as a pass on a quiet one.
func TestScaledSum(t *testing.T) {
	r := refNominalS
	cells := [][]float64{{1, 10}, {2, 20}, {1.5, 9}}
	refs := [][]float64{{r, r}, {2 * r, 2 * r}, {r, r}}
	// Cell 0 scales to 1, 1, 1.5; cell 1 to 10, 10, 9.
	if got := scaledSum(cells, refs); math.Abs(got-11) > 1e-9 {
		t.Errorf("scaledSum = %v, want 11", got)
	}
	if got := scaledSum(nil, nil); got != 0 {
		t.Errorf("scaledSum of no passes = %v, want 0", got)
	}
}
