package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// shortOptions shrinks a run to seconds: small tables, one set-up, few
// side-phase samples.
func shortOptions(t *testing.T) options {
	return options{
		seed: 7, seconds: time.Second, platforms: 1, prefixes: 512, side: 12, sideFor: 50 * time.Millisecond,
		workDir: t.TempDir(),
	}
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

// TestWorkloadsPrintEveryMetric runs each workload untraced and traced
// in short mode: every declared metric must be printed with its unit,
// and nothing may fail.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	e2e, layer := declared(t)
	for i := range workloads {
		wl := &workloads[i]
		for _, trace := range []bool{false, true} {
			want := e2e
			if trace {
				want = layer
			}
			opts := shortOptions(t)
			opts.trace = trace
			var out strings.Builder
			res, err := execute(wl, opts, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.name, trace, err)
			}
			if res.Failed != 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed:\n%s", wl.name, trace, res.Failed, res.Attempted, out.String())
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", wl.name, trace, name, m, unit)
				}
				if !strings.Contains(out.String(), name) {
					t.Errorf("%s trace=%v: %s not printed", wl.name, trace, name)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", wl.name, trace, len(res.Metrics), len(want))
			}
		}
	}
}

// TestDroppedUpdateFails breaks one input: bench neighbor 0 ignores the
// first UPDATE the platform sends it. The run must count failures.
func TestDroppedUpdateFails(t *testing.T) {
	opts := shortOptions(t)
	opts.drop = 1
	res, err := execute(workloadByName("experiment-control"), opts, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 || res.Correct {
		t.Fatalf("dropped UPDATE went unnoticed: %d of %d failed, correct=%v", res.Failed, res.Attempted, res.Correct)
	}
}
