package experiments

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/mphf"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// BuildPathConfig parameterizes the build-path ablation surfaced by
// cmd/ablations -build: on the MPHF-shaped instance (3-partite, density
// 1/γ just below c*(2,3)) it times the two sources of an ordered peel —
// the sequential queue peel vs the ordered round-synchronous peel
// (core.ParallelOrder) at 1 worker and at the configured pool size —
// and the end-to-end mphf build that consumes it.
type BuildPathConfig struct {
	Ns      []int // key counts
	Gamma   float64
	Seed    uint64
	Reps    int // timing repetitions; the best rep is reported
	Workers int // parallel pool size; 0 = the default pool's size
}

// DefaultBuildPath returns a sweep over serving-sized key sets at the
// standard γ = 1.23.
func DefaultBuildPath() BuildPathConfig {
	return BuildPathConfig{
		Ns:    []int{1 << 16, 1 << 18, 1 << 20},
		Gamma: mphf.DefaultGamma,
		Seed:  2014,
		Reps:  3,
	}
}

// BuildPathRow is one key-count's timings.
type BuildPathRow struct {
	Keys     int
	SeqPeel  time.Duration // core.Sequential on the key hypergraph
	OrdPeel1 time.Duration // core.ParallelOrder, 1-worker pool
	OrdPeelW time.Duration // core.ParallelOrder, W-worker pool
	BuildW   time.Duration // mphf.BuildCtx end-to-end, W workers
}

// RunBuildPath runs the sweep. The peels run on the identical graph
// (the ordered peel is deterministic at every worker count), so the
// rows isolate the peel-algorithm change from the graph.
func RunBuildPath(cfg BuildPathConfig) []BuildPathRow {
	if cfg.Reps <= 0 {
		cfg.Reps = 3
	}
	onePool := parallel.NewPool(1)
	defer onePool.Close()
	wPool := parallel.NewPool(cfg.Workers)
	defer wPool.Close()

	best := func(run func()) time.Duration {
		b := time.Duration(1<<63 - 1)
		for rep := 0; rep < cfg.Reps; rep++ {
			start := time.Now()
			run()
			if d := time.Since(start); d < b {
				b = d
			}
		}
		return b
	}

	var rows []BuildPathRow
	for _, m := range cfg.Ns {
		subSize := int(cfg.Gamma*float64(m))/3 + 1
		g := hypergraph.Partitioned(3*subSize, m, 3, rng.New(cfg.Seed))
		keys := make([]uint64, m)
		gen := rng.New(cfg.Seed + 1)
		for i := range keys {
			keys[i] = gen.Uint64()
		}
		rows = append(rows, BuildPathRow{
			Keys:    m,
			SeqPeel: best(func() { core.Sequential(g, 2) }),
			OrdPeel1: best(func() {
				core.ParallelOrder(g, 2, core.Options{Pool: onePool})
			}),
			OrdPeelW: best(func() {
				core.ParallelOrder(g, 2, core.Options{Pool: wPool})
			}),
			BuildW: best(func() {
				must(mphf.BuildCtx(context.Background(), keys, cfg.Gamma, cfg.Seed, 10, wPool))
			}),
		})
	}
	return rows
}

// RenderBuildPath writes the sweep as a table.
func RenderBuildPath(w io.Writer, workers int, rows []BuildPathRow) {
	if workers <= 0 {
		workers = parallel.Workers()
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "keys\tseq peel\tord peel(1w)\tord peel(%dw)\tbuild(%dw)\tpeel speedup\n", workers, workers)
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%v\t%v\t%v\t%v\t%.2fx\n",
			r.Keys,
			r.SeqPeel.Round(time.Microsecond), r.OrdPeel1.Round(time.Microsecond),
			r.OrdPeelW.Round(time.Microsecond), r.BuildW.Round(time.Microsecond),
			r.SeqPeel.Seconds()/r.OrdPeelW.Seconds())
	}
	tw.Flush()
}
