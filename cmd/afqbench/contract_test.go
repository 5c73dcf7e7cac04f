package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json, at the root of the repository, repeats the
// benchmark's workloads and metrics for the driver; this holds the two
// together. It is skipped where the file is not two directories up,
// such as a copy of this directory alone.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads declared, %d in the code", len(decl.Workloads), len(workloadNames))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, the code has %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(decl.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d in the code", len(decl.EndToEnd), len(endToEnd))
	}
	for i, m := range decl.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != driverBound {
			t.Errorf("end-to-end metric %d declared as %+v, the code has %+v", i, m, d)
		}
		if m.Bound < regressBound || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside [%v, 0.25]", m.Name, m.Bound, regressBound)
		}
	}
	if len(decl.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics declared, %d in the code (at most 128)", len(decl.PerLayer), len(perLayer))
	}
	seen := make(map[string]bool)
	for i, m := range decl.PerLayer {
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit {
			t.Errorf("per-layer metric %d declared as %s [%s], the code has %s [%s]", i, m.Name, m.Unit, perLayer[i].Name, perLayer[i].Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
		if seen[m.Name] || len(m.Name) > 64 || len(m.Unit) > 16 {
			t.Errorf("%s [%s]: repeated or too long", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", decl.RunSeconds)
	}
}
