// Command ablations runs the design-choice ablations called out in
// DESIGN.md: frontier vs full-scan round implementation, IBLT decode
// strategies (serial / GPU-style full-scan / frontier extension),
// peeling vs random-walk cuckoo placement thresholds, and XORSAT solver
// regimes around the two thresholds of random 3-XORSAT.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/experiments"
	"repro/internal/parallel"
)

func main() {
	scan := flag.Bool("scan", true, "frontier vs full-scan peeling ablation")
	decode := flag.Bool("decode", true, "IBLT decoder ablation")
	cuckoo := flag.Bool("cuckoo", true, "peeling vs random-walk placement sweep")
	xs := flag.Bool("xorsat", true, "XORSAT regime sweep")
	ensembles := flag.Bool("ensembles", true, "degree-ensemble comparison")
	construct := flag.Bool("construct", false, "sequential vs pooled instance-construction timing")
	build := flag.Bool("build", false, "builder path: sequential vs subround key peel + end-to-end MPHF build")
	workers := flag.Int("workers", 0, "worker pool size for parallel peeling (0 = GOMAXPROCS)")
	flag.Parse()

	if *workers > 0 {
		parallel.SetDefaultWorkers(*workers)
	}
	fmt.Printf("ablations (GOMAXPROCS=%d, workers=%d)\n\n",
		runtime.GOMAXPROCS(0), parallel.Default().Workers())

	if *construct {
		fmt.Println("== instance construction: sequential vs pooled generation + CSR build ==")
		cfg := experiments.DefaultConstructBench()
		cfg.Workers = *workers
		experiments.RenderConstructBench(os.Stdout, cfg.Workers, experiments.RunConstructBench(cfg))
		fmt.Println()
	}

	if *build {
		fmt.Println("== build path: sequential vs subround key peel (MPHF graph, γ=1.23) ==")
		cfg := experiments.DefaultBuildPath()
		cfg.Workers = *workers
		experiments.RenderBuildPath(os.Stdout, cfg.Workers, experiments.RunBuildPath(cfg))
		fmt.Println()
	}

	if *scan {
		fmt.Println("== parallel peeling: frontier vs full-scan (c=0.7, k=2, r=4) ==")
		experiments.RenderScanAblation(os.Stdout, experiments.RunScanAblation(experiments.DefaultScanAblation()))
		fmt.Println()
	}
	if *decode {
		fmt.Println("== IBLT decode: serial vs GPU-style full scan vs frontier extension ==")
		experiments.RunDecoderAblation(experiments.DefaultDecoderAblation()).Render(os.Stdout)
		fmt.Println()
	}
	if *cuckoo {
		fmt.Println("== cuckoo placement: peeling (threshold 0.818) vs random walk (threshold ~0.917), r=3 ==")
		experiments.RenderCuckooSweep(os.Stdout, experiments.RunCuckooSweep(experiments.DefaultCuckooSweep()))
		fmt.Println()
	}
	if *xs {
		fmt.Println("== random 3-XORSAT: peel-only vs peel+Gauss solve rates ==")
		experiments.RenderXORSATSweep(os.Stdout, experiments.RunXORSATSweep(experiments.DefaultXORSATSweep()))
		fmt.Println()
	}
	if *ensembles {
		fmt.Println("== degree ensembles at equal density 1.0 (r=3, k=2) ==")
		experiments.RenderEnsembleComparison(os.Stdout, experiments.RunEnsembleComparison(100000, 2014))
	}
}
