package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestMetricsMatchBenchmarkJSON pins the benchmark's declared workloads and
// metrics (BENCHMARK.json at the repository root) to the ones the program
// reports, and requires README.md to document each of them.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := func(name string) {
		if !strings.Contains(string(readme), "`"+name+"`") {
			t.Errorf("README.md does not document %s", name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
		documented(w.Name)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program %d", kind, len(declared), len(defs))
		}
		for i, d := range declared {
			if d.Name != defs[i].name || d.Unit != defs[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, d.Name, d.Unit, defs[i].name, defs[i].unit)
			}
			documented(d.Name)
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 50},  // overlaps span 1
		{ID: 3, Parent: 0, Start: 90, End: 120}, // runs past its parent
		{ID: 4, Parent: 1, Start: 10, End: 20},
	}}
	self := tr.selfTimes()
	for id, want := range map[int]int64{0: 100 - 40 - 10, 1: 20, 2: 20, 3: 30, 4: 10} {
		if int64(self[id]) != want {
			t.Errorf("span %d self time %d, want %d", id, self[id], want)
		}
	}
}
