package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json, which tells
// runners what a result holds, in step with what the program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for i, w := range workloads {
		if i >= len(names) || names[i] != w.name {
			t.Errorf("BENCHMARK.json workloads %v, program has %q at %d", names, w.name, i)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, layerMetrics)
}

// TestEveryLayerMetricIsMeasured checks that each per-layer metric comes
// from exactly one source: the /metrics window, the traced run, or the
// overhead ratio.
func TestEveryLayerMetricIsMeasured(t *testing.T) {
	fromWindow, _ := window{}.layerMetrics(0)
	sources := map[string]int{"trace.overhead_ratio": 1}
	for k := range fromWindow {
		sources[k]++
	}
	for k := range (&recorder{}).layerMetrics() {
		sources[k]++
	}
	var table []string
	for _, m := range layerMetrics {
		table = append(table, m.name)
		if sources[m.name] != 1 {
			t.Errorf("%s has %d sources", m.name, sources[m.name])
		}
	}
	for k := range sources {
		if !slices.Contains(table, k) {
			t.Errorf("%s is measured but not reported", k)
		}
	}
}
