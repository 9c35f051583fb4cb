package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// samples maps workload → metric → the values of every untraced run.
type samples map[string]map[string][]float64

// loadRuns reads every results file (*.json) in dir.
func loadRuns(dir string) (samples, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no *.json results files", dir)
	}
	out := make(samples)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var file struct{ Runs []record }
		if err := json.Unmarshal(b, &file); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, r := range file.Runs {
			if r.Trace {
				continue
			}
			if out[r.Workload] == nil {
				out[r.Workload] = make(map[string][]float64)
			}
			for name, m := range r.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], m.Value)
			}
		}
	}
	return out, nil
}

// compareMain compares the untraced runs of two commits metric by
// metric, workload by workload, and exits 1 if any end-to-end median is
// worse than the parent's by more than its bound in BENCHMARK.json.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark spec holding each metric's bound")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: peelbench compare [-spec BENCHMARK.json] PARENT_DIR CHANGE_DIR")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	spec, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "peelbench:", err)
		return 2
	}
	parent, err1 := loadRuns(fs.Arg(0))
	change, err2 := loadRuns(fs.Arg(1))
	if err1 != nil || err2 != nil {
		fmt.Fprintln(os.Stderr, "peelbench:", err1, err2)
		return 2
	}
	workloads := make([]string, 0, len(parent))
	for w := range parent {
		workloads = append(workloads, w)
	}
	slices.Sort(workloads)

	fmt.Printf("%-10s %-22s %30s %30s %8s %7s  %s\n", "workload", "metric", "parent q1/median/q3", "change q1/median/q3", "worse", "bound", "verdict")
	regressed := false
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			p, c := parent[w][m.Name], change[w][m.Name]
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			p1, pm, p3 := quartiles(p)
			c1, cm, c3 := quartiles(c)
			higher := m.Better == "higher"
			worse, rejected := regression(pm, cm, higher, m.Bound)
			verdict := "within bound"
			switch {
			case rejected:
				verdict, regressed = "REGRESSION", true
			case (p3-p1)/pm > m.Bound && !allBetter(p, c, higher):
				verdict = "unresolved (parent spread exceeds bound)"
			}
			fmt.Printf("%-10s %-22s %30s %30s %+7.1f%% %6.0f%%  %s\n", w, m.Name,
				fmt.Sprintf("%.4g/%.4g/%.4g", p1, pm, p3), fmt.Sprintf("%.4g/%.4g/%.4g", c1, cm, c3),
				100*worse, 100*m.Bound, verdict)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

// allBetter reports whether every change value beats every parent value.
func allBetter(parent, change []float64, higherIsBetter bool) bool {
	if higherIsBetter {
		return slices.Min(change) > slices.Max(parent)
	}
	return slices.Max(change) < slices.Min(parent)
}
