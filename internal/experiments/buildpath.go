package experiments

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/layout"
	"repro/internal/mphf"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// BuildPathConfig parameterizes the build-path ablation surfaced by
// cmd/ablations -build: on the MPHF key hypergraph (3-partite, density
// 1/γ just below c*(2,3)) it times the sequential queue peel against
// the builders' subround peel (core.PeelKeys) at 1 worker and at the
// configured pool size, and the end-to-end mphf build that consumes it.
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
	SeqPeel  time.Duration // core.Sequential on the prebuilt CSR index of the key hypergraph
	KeyPeel1 time.Duration // core.PeelKeys (key hashing included), 1-worker pool
	KeyPeelW time.Duration // core.PeelKeys (key hashing included), W-worker pool
	BuildW   time.Duration // mphf.BuildCtx end-to-end, W workers
}

// RunBuildPath runs the sweep. Every peel runs on the same key
// hypergraph (PeelKeys is deterministic at every worker count), so the
// rows isolate the peel algorithm from the graph. The sequential peel
// is handed the graph's CSR index, built outside the timing; PeelKeys
// needs none but hashes the keys inside it.
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
		subSize := must(layout.SubSize(m, cfg.Gamma))
		keys := make([]uint64, m)
		gen := rng.New(cfg.Seed)
		for i := range keys {
			keys[i] = gen.Uint64()
		}
		hseed := [layout.Arity]uint64{gen.Uint64(), gen.Uint64(), gen.Uint64()}
		hash := func(keys []uint64, edges []uint32) { layout.VertexTriples(hseed, subSize, keys, edges) }
		// The timed peels release their buffers, as the builders do; g
		// keeps the edge list of a peel that is never released.
		peel := func(pool *parallel.Pool) *core.KeyPeel {
			_, p, err := core.PeelKeys(context.Background(), keys, subSize, hash, pool)
			return must(p, err)
		}
		edges, _, err := core.PeelKeys(context.Background(), keys, subSize, hash, wPool)
		g := hypergraph.FromEdges(3*subSize, 3, must(edges, err), subSize)
		rows = append(rows, BuildPathRow{
			Keys:     m,
			SeqPeel:  best(func() { core.Sequential(g, 2) }),
			KeyPeel1: best(func() { peel(onePool).Release() }),
			KeyPeelW: best(func() { peel(wPool).Release() }),
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
	fmt.Fprintf(tw, "keys\tseq peel\tkey peel(1w)\tkey peel(%dw)\tbuild(%dw)\tpeel speedup\n", workers, workers)
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%v\t%v\t%v\t%v\t%.2fx\n",
			r.Keys,
			r.SeqPeel.Round(time.Microsecond), r.KeyPeel1.Round(time.Microsecond),
			r.KeyPeelW.Round(time.Microsecond), r.BuildW.Round(time.Microsecond),
			r.SeqPeel.Seconds()/r.KeyPeelW.Seconds())
	}
	tw.Flush()
}
