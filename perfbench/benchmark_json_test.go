package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json at the checkout root names the workloads and metrics
// this program prints; the two must not drift apart.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, w := range b.Workloads {
		listed[w.Name] = true
		if workloadByName(w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %s is unknown to the program", w.Name)
		}
	}
	for _, w := range workloads {
		if !listed[w.name] {
			t.Errorf("workload %s is missing from BENCHMARK.json", w.name)
		}
	}
	check := func(kind string, listed []metric, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(listed), len(defs))
		}
		for i := range listed {
			if i < len(defs) && (listed[i].Name != defs[i].name || listed[i].Unit != defs[i].unit) {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, listed[i].Name, listed[i].Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndMetrics)
	check("per_layer", b.PerLayer, perLayer)
}
