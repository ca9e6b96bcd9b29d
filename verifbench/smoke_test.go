package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload at the smoke size, untraced twice and
// traced once, with every correctness check on.
// The reported metrics are exactly those BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			first := smokeRun(t, w, false)
			if len(first.Metrics) != len(bf.EndToEnd) {
				t.Errorf("untraced run reported %d metrics, BENCHMARK.json lists %d", len(first.Metrics), len(bf.EndToEnd))
			}
			for _, m := range bf.EndToEnd {
				if v, ok := first.Metrics[m.Name]; !ok || v["value"].(float64) <= 0 {
					t.Errorf("metric %s missing or not positive: %v", m.Name, v)
				}
			}
			// The cost-model metrics repeat exactly for a given seed.
			second := smokeRun(t, w, false)
			for _, name := range []string{"sim_io_ms", "vo_bytes", "snapshot_bytes"} {
				if a, b := first.Metrics[name]["value"], second.Metrics[name]["value"]; a != b {
					t.Errorf("%s differs between runs of one seed: %v vs %v", name, a, b)
				}
			}
			traced := smokeRun(t, w, true)
			if len(traced.Metrics) != len(bf.PerLayer) {
				t.Errorf("traced run reported %d per-layer metrics, BENCHMARK.json lists %d", len(traced.Metrics), len(bf.PerLayer))
			}
			for _, m := range bf.PerLayer {
				if _, ok := traced.Metrics[m.Name]; !ok {
					t.Errorf("per-layer metric %s missing", m.Name)
				}
			}
			if _, err := os.Stat(filepath.Join(".bench_out", "trace-"+w+"-seed1.json")); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

func smokeRun(t *testing.T, w string, traced bool) *result {
	t.Helper()
	res, err := run(w, smokeSize, 1, 0, traced, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	return res
}
