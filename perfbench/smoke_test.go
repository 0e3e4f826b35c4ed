package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
)

// TestSmoke runs every workload for one second, once untraced and once
// traced, and checks that each run reports exactly the metrics
// ../BENCHMARK.json names, with their units, and that no operation failed
// or disagreed with the oracle. Workloads the benchmark has but
// BENCHMARK.json leaves out (schema-churn) are run too. The breakdown tolerance is not
// checked here: under -race the in-process replays run instrumented while
// castd does not.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts castd and runs every workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	castd := filepath.Join(tmp, "castd")
	build := exec.Command("go", "build", "-o", castd, "./cmd/castd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building castd: %v\n%s", err, out)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not have", w.Name)
		}
	}
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		run := workloads[name]
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			out, err := run(config{workload: name, seed: 1, seconds: 1, trace: trace, castd: castd, workdir: tmp})
			if err != nil {
				t.Errorf("%s (trace %v): %v", name, trace, err)
				continue
			}
			if out.attempted == 0 || out.failed != 0 || out.mismatched != 0 {
				t.Errorf("%s (trace %v): %d attempted, %d failed, %d disagreed with the oracle",
					name, trace, out.attempted, out.failed, out.mismatched)
			}
			for _, m := range want {
				got, ok := out.metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s (trace %v): metric %s missing", name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s (trace %v): metric %s has unit %q, BENCHMARK.json says %q", name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(out.metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics reported, BENCHMARK.json names %d", name, trace, len(out.metrics), len(want))
			}
		}
	}
}
