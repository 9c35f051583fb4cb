package main

import (
	"context"
	"fmt"

	"repro"
	"repro/internal/iblt"
	"repro/internal/mphf"
)

// probeReps is how many times each probe repeats in a run; times are
// medians.
const probeReps = 5

// probeSeed fixes the probes' inputs whatever the run's seed, so their
// counts repeat exactly from run to run and their times compare.
const probeSeed = 2014

// Geometry of the core peel probes: the paper's r = 4, k = 2 instance
// below its threshold c*(2,4) ≈ 0.772 and above it.
const (
	peelVertices = 1 << 20
	peelBelow    = 0.70
	peelAbove    = 0.85
)

// inJob runs f as a job of rt and waits for it.
func inJob(ctx context.Context, rt *repro.Runtime, f func(ctx context.Context, pool *repro.WorkerPool) error) error {
	wait, err := rt.Go(ctx, f)
	if err != nil {
		return err
	}
	return wait()
}

// prober times calls into each layer one at a time, each call as the
// root span of its own trace, at one worker and at two.
type prober struct {
	ctx    context.Context
	tr     *tracer
	reps   int
	rt     [3]*repro.Runtime // rt[w] has w workers
	trace  uint64
	counts map[string]float64
}

// once times f as a root span named name.
func (p *prober) once(name string, f func() error) error {
	p.trace++
	root := p.tr.root(p.trace, name)
	err := f()
	p.tr.end(root)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// count records a count that must repeat exactly across repetitions.
func (p *prober) count(name string, v float64) error {
	if old, ok := p.counts[name]; ok && old != v {
		return fmt.Errorf("%s is %v, then %v: counts must repeat exactly", name, old, v)
	}
	p.counts[name] = v
	return nil
}

// runProbes runs every layer probe reps times and returns the per-layer
// metrics they give. serve, when not nil, supplies the static-map images
// for the serving probes.
func runProbes(ctx context.Context, tr *tracer, reps int, serve *serveInputs) (map[string]float64, error) {
	p := &prober{ctx: ctx, tr: tr, reps: reps, counts: make(map[string]float64)}
	for w := 1; w <= 2; w++ {
		p.rt[w] = repro.NewRuntime(repro.RuntimeOptions{Workers: w})
		defer p.rt[w].Shutdown(context.Background())
	}
	if serve == nil {
		var err error
		if serve, err = newServeInputs(ctx, probeSeed, p.rt[2]); err != nil {
			return nil, err
		}
	}
	for _, probe := range []func() error{p.decode, p.reconcile, p.peel, p.buildPath, func() error { return p.serving(serve) }} {
		if err := probe(); err != nil {
			return nil, err
		}
	}

	m := p.counts
	for _, name := range []string{
		"iblt.unmarshal", "iblt.decode_w1", "iblt.decode_w2", "iblt.reconcile", "iblt.insert",
		"core.peel_w1", "core.peel_w2", "core.peel_above", "core.ordered_peel",
		"hypergraph.construct", "mphf.build_w1", "mphf.build_w2", "layout.open", "serving.swap",
	} {
		m[name+"_ms"] = tr.medianMs(name)
	}
	m["serving.lookup_ns_per_key"] = tr.medianMs("serving.lookup_batches") * 1e6 / (serveRequests * serveBatch)
	m["core.ms_per_round"] = m["core.peel_w2_ms"] / m["core.rounds"]
	m["mphf.rest_ms"] = m["mphf.build_w2_ms"] - m["hypergraph.construct_ms"] - m["core.ordered_peel_ms"]
	m["parallel.speedup_decode"] = m["iblt.decode_w1_ms"] / m["iblt.decode_w2_ms"]
	m["parallel.speedup_peel"] = m["core.peel_w1_ms"] / m["core.peel_w2_ms"]
	m["parallel.speedup_build"] = m["mphf.build_w1_ms"] / m["mphf.build_w2_ms"]
	return m, nil
}

// decode times unmarshalling and peeling one decode-workload sketch.
func (p *prober) decode() error {
	wire, err := newDecodeSketch(p.ctx, newKeyGen(probeSeed, 7).keys(decodeKeys), probeSeed, p.rt[2])
	if err != nil {
		return err
	}
	for rep := 0; rep < p.reps; rep++ {
		for w := 1; w <= 2; w++ {
			err := inJob(p.ctx, p.rt[w], func(ctx context.Context, pool *repro.WorkerPool) error {
				var t iblt.Table
				if err := p.once("iblt.unmarshal", func() error { return t.UnmarshalBinary(wire) }); err != nil {
					return err
				}
				var res *repro.IBLTParallelResult
				if err := p.once(fmt.Sprintf("iblt.decode_w%d", w), func() (err error) {
					res, err = t.DecodeParallelFrontierCtx(ctx, pool)
					return err
				}); err != nil {
					return err
				}
				if !res.Complete || len(res.Added) != decodeKeys {
					return fmt.Errorf("decode probe recovered %d of %d keys", len(res.Added), decodeKeys)
				}
				return p.count("iblt.decode_subrounds", float64(res.Subrounds))
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// reconcile times one reconcile-workload request in-process, and the
// bulk insert of one side into the difference table reconcile sizes for
// the true difference (headroom × difference × 1.3 cells).
func (p *prober) reconcile() error {
	g := newKeyGen(probeSeed, 8)
	common := g.keys(reconcileKeys - reconcileDiff)
	local := append(g.keys(reconcileDiff), common...)
	remote := append(g.keys(reconcileDiff), common...)
	cells := int(reconcileRoom * 2 * reconcileDiff * 1.3)
	seed, err := firstTry(probeSeed, func(s uint64) error {
		return inJob(p.ctx, p.rt[2], func(ctx context.Context, pool *repro.WorkerPool) error {
			_, _, _, err := iblt.ReconcileCtx(ctx, local, remote, s, reconcileRoom, pool)
			return err
		})
	})
	if err != nil {
		return err
	}
	for rep := 0; rep < 2*p.reps; rep++ {
		err := inJob(p.ctx, p.rt[2], func(ctx context.Context, pool *repro.WorkerPool) error {
			var l, r []uint64
			if err := p.once("iblt.reconcile", func() (err error) {
				l, r, _, err = iblt.ReconcileCtx(ctx, local, remote, seed, reconcileRoom, pool)
				return err
			}); err != nil {
				return err
			}
			if len(l) != reconcileDiff || len(r) != reconcileDiff {
				return fmt.Errorf("reconcile probe found %d/%d differences", len(l), len(r))
			}
			t := iblt.New(cells, 3, probeSeed)
			return p.once("iblt.insert", func() error { return t.InsertAllCtx(ctx, local, pool) })
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// peel times Runtime.Peel below the threshold at one and two workers,
// and above it, checking rounds and core size against the recurrence.
func (p *prober) peel() error {
	n := peelVertices
	g := repro.NewUniformHypergraph(n, int(peelBelow*float64(n)), 4, probeSeed)
	for rep := 0; rep < p.reps; rep++ {
		for w := 1; w <= 2; w++ {
			var res *repro.PeelResult
			if err := p.once(fmt.Sprintf("core.peel_w%d", w), func() (err error) {
				res, err = p.rt[w].Peel(p.ctx, g, 2, repro.PeelOptions{})
				return err
			}); err != nil {
				return err
			}
			if !res.Empty() {
				return fmt.Errorf("peel below the threshold left a %d-vertex core", res.CoreVertices)
			}
			if err := p.count("core.rounds", float64(res.Rounds)); err != nil {
				return err
			}
		}
	}
	predicted, ok, err := repro.PredictRounds(repro.RecurrenceParams{K: 2, R: 4, C: peelBelow}, float64(n), 100)
	if err != nil || !ok {
		return fmt.Errorf("PredictRounds: ok=%v err=%v", ok, err)
	}
	p.counts["core.rounds_predicted"] = float64(predicted)

	g = repro.NewUniformHypergraph(n, int(peelAbove*float64(n)), 4, probeSeed)
	for rep := 0; rep < p.reps; rep++ {
		var res *repro.PeelResult
		if err := p.once("core.peel_above", func() (err error) {
			res, err = p.rt[2].Peel(p.ctx, g, 2, repro.PeelOptions{})
			return err
		}); err != nil {
			return err
		}
		if err := p.count("core.rounds_above", float64(res.Rounds)); err != nil {
			return err
		}
		if err := p.count("core.core_frac_above", float64(res.CoreVertices)/float64(n)); err != nil {
			return err
		}
	}
	p.counts["core.core_frac_predicted"] = repro.CoreFraction(2, 4, peelAbove)
	return nil
}

// buildPath times the build workload's MPHF build at one and two
// workers, and two of its steps on their own: constructing a hypergraph
// of the build's geometry and the ordered peel of it.
func (p *prober) buildPath() error {
	m := buildKeys
	n := 3 * (int(mphf.DefaultGamma*float64(m))/3 + 1)
	for rep := 0; rep < p.reps; rep++ {
		var g *repro.Hypergraph
		p.once("hypergraph.construct", func() error {
			g = repro.NewUniformHypergraph(n, m, 3, probeSeed)
			return nil
		})
		if err := p.once("core.ordered_peel", func() error {
			_, err := p.rt[2].PeelOrdered(p.ctx, g, 2, repro.PeelOptions{})
			return err
		}); err != nil {
			return err
		}
	}
	keys := newKeyGen(probeSeed, 9).keys(buildKeys)
	for rep := 0; rep < p.reps; rep++ {
		for w := 1; w <= 2; w++ {
			var f *repro.MPHF
			if err := p.once(fmt.Sprintf("mphf.build_w%d", w), func() (err error) {
				f, err = p.rt[w].BuildMPHF(p.ctx, keys, probeSeed)
				return err
			}); err != nil {
				return err
			}
			if err := p.count("mphf.image_bytes", float64(len(f.Bytes()))); err != nil {
				return err
			}
		}
	}
	return nil
}

// serving times opening and installing the serve workload's 10 MB
// images, and 16-key batched lookups against an installed one.
func (p *prober) serving(s *serveInputs) error {
	tbl := repro.NewStaticTable()
	for rep := 0; rep < p.reps; rep++ {
		if err := p.once("layout.open", func() error {
			_, err := repro.OpenStaticMap(s.image[rep%2])
			return err
		}); err != nil {
			return err
		}
		if err := p.once("serving.swap", func() error {
			_, err := tbl.SwapImage(s.image[rep%2], nil)
			return err
		}); err != nil {
			return err
		}
	}
	batches := s.batches(1)
	out := make([]uint64, serveBatch)
	for rep := 0; rep < p.reps; rep++ {
		var gen uint64
		p.once("serving.lookup_batches", func() error {
			for _, b := range batches {
				gen, _ = tbl.LookupBatch(b, out)
			}
			return nil
		})
		if err := s.checkLookup(batches[len(batches)-1], out, gen); err != nil {
			return err
		}
	}
	return nil
}
