package main

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestSchema runs every workload briefly against an in-process server
// and checks that each run emits every metric BENCHMARK.json names, with
// its unit, and that no request failed.
func TestSchema(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{
		seed:      7,
		window:    200 * time.Millisecond,
		setupRuns: 1,
		probeReps: 1,
		start:     startInProcess,
	}
	check := func(rec record, want map[string]string) {
		t.Helper()
		if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
			t.Errorf("%s (trace=%v): correct=%v attempted=%d failed=%d", rec.Workload, rec.Trace, rec.Correct, rec.Attempted, rec.Failed)
		}
		if len(rec.Metrics) != len(want) {
			t.Errorf("%s (trace=%v): %d metrics, BENCHMARK.json lists %d", rec.Workload, rec.Trace, len(rec.Metrics), len(want))
		}
		for name, unit := range want {
			if m, ok := rec.Metrics[name]; !ok || m.Unit != unit {
				t.Errorf("%s (trace=%v): metric %s = %+v, want unit %q", rec.Workload, rec.Trace, name, m, unit)
			}
		}
	}

	e2e := make(map[string]string)
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	ctx := context.Background()
	for _, name := range workloadNames {
		rec, err := runUntraced(ctx, cfg, name)
		if err != nil && !errors.Is(err, errFewSamples) {
			t.Fatalf("%s: %v", name, err)
		}
		check(rec, e2e)
	}

	// Every traced run reports the same metrics through the same code;
	// reconcile's replay is the cheapest.
	layers := make(map[string]string)
	for _, m := range spec.PerLayer {
		layers[m.Name] = m.Unit
	}
	rec, err := runTraced(ctx, cfg, "reconcile", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	check(rec, layers)
}
