package repro

import (
	"context"
	"errors"

	"repro/internal/bloomier"
	"repro/internal/core"
	"repro/internal/erasure"
	"repro/internal/hypergraph"
	"repro/internal/iblt"
	"repro/internal/mphf"
	"repro/internal/parallel"
	"repro/internal/recurrence"
	"repro/internal/rng"
	"repro/internal/threshold"
	"repro/internal/xorsat"
)

// Hypergraph is an immutable r-uniform hypergraph with CSR incidence; see
// the generator functions below.
type Hypergraph = hypergraph.Hypergraph

// PeelResult reports rounds, per-round survivor counts, and the residual
// k-core of a peeling run.
type PeelResult = core.Result

// SeqPeelResult additionally carries the peel order and the edge → vertex
// orientation produced by sequential peeling.
type SeqPeelResult = core.SeqResult

// OrderedPeelResult carries the round-major peel order and the
// minimum-endpoint edge orientation produced by the ordered parallel
// peel — the parallel replacement for SeqPeelResult's artifacts,
// bit-identical at every worker count. Reverse round-major order is a
// valid elimination order for k = 2 with full parallelism inside a
// round; see core.OrderedResult.
type OrderedPeelResult = core.OrderedResult

// PeelOptions configures the parallel peelers (scan policy, round cap).
type PeelOptions = core.Options

// Scan policies for PeelParallelOpts: FrontierScan tracks only vertices
// whose degree changed (work-efficient); FullScan re-examines every
// vertex each round (the GPU strategy).
const (
	FrontierScan = core.Frontier
	FullScan     = core.FullScan
)

// IBLT is an Invertible Bloom Lookup Table with r subtables; see NewIBLT.
type IBLT = iblt.Table

// IBLTParallelResult reports a parallel IBLT recovery.
type IBLTParallelResult = iblt.ParallelResult

// ErasureCode is a Biff-style peeling erasure code; see NewErasureCode.
type ErasureCode = erasure.Code

// ErasureCell is one check symbol of an ErasureCode block.
type ErasureCell = erasure.Cell

// MPHF is a minimal perfect hash function built by peeling; see BuildMPHF.
type MPHF = mphf.MPHF

// XORSATInstance is a system of XOR equations; see NewXORSATInstance.
type XORSATInstance = xorsat.Instance

// RecurrenceParams evaluates the paper's idealized recurrences (survivor
// fractions λ_t, densities β_t, subtable variants) for a (k, r, c)
// ensemble.
type RecurrenceParams = recurrence.Params

// NewUniformHypergraph returns the paper's G^r_{n,m} model: m edges, each
// a uniform r-subset of [0, n), generated deterministically from seed.
func NewUniformHypergraph(n, m, r int, seed uint64) *Hypergraph {
	return hypergraph.Uniform(n, m, r, rng.New(seed))
}

// NewBinomialHypergraph returns the paper's G^r_c model on n vertices
// with edge density c (edge count Poisson(cn)).
func NewBinomialHypergraph(n int, c float64, r int, seed uint64) *Hypergraph {
	return hypergraph.Binomial(n, c, r, rng.New(seed))
}

// NewPartitionedHypergraph returns the Appendix B model: n vertices (n
// divisible by r) split into r subtables, each edge containing one
// uniform vertex per subtable.
func NewPartitionedHypergraph(n, m, r int, seed uint64) *Hypergraph {
	return hypergraph.Partitioned(n, m, r, rng.New(seed))
}

// Peel runs the classic sequential greedy peel to the k-core, returning
// the peel order and edge orientation along with the core.
func Peel(g *Hypergraph, k int) *SeqPeelResult { return core.Sequential(g, k) }

// PeelParallel runs the round-synchronous parallel peeling process the
// paper analyzes: every round removes all vertices of degree < k at once,
// across all CPU cores.
//
// Deprecated: use Runtime.Peel, which adds context cancellation and
// admission control. PeelParallel runs on the package-default Runtime.
func PeelParallel(g *Hypergraph, k int) *PeelResult {
	res, err := DefaultRuntime().Peel(context.Background(), g, k, PeelOptions{})
	if err != nil {
		// Only reachable if the default Runtime was shut down; keep the
		// historical cannot-fail contract (degraded to inline serial).
		return core.Parallel(g, k, core.Options{})
	}
	return res
}

// PeelParallelOpts is PeelParallel with explicit options (including an
// explicit Options.Pool, which is honored here).
//
// Deprecated: use Runtime.Peel, which adds context cancellation and
// admission control.
func PeelParallelOpts(g *Hypergraph, k int, opts PeelOptions) *PeelResult {
	return core.Parallel(g, k, opts)
}

// PeelOrdered runs the ordered round-synchronous parallel peel: the
// same rounds and k-core as PeelParallel, plus the peel order and edge
// orientation that Peel (sequential) produces — but computed in
// parallel, deterministically at every worker count. It runs on the
// package-default Runtime; servers should use Runtime.PeelOrdered for
// cancellation and admission control.
func PeelOrdered(g *Hypergraph, k int) *OrderedPeelResult {
	res, err := DefaultRuntime().PeelOrdered(context.Background(), g, k, PeelOptions{})
	if err != nil {
		// Only reachable if the default Runtime was shut down; keep the
		// cannot-fail contract (degraded to inline serial), consistent
		// with PeelParallel's fallback.
		return core.ParallelOrder(g, k, core.Options{})
	}
	return res
}

// PeelSubtables runs the Appendix B subround process on a partitioned
// hypergraph: each round peels the r subtables one after another, each in
// parallel internally.
//
// Deprecated: use Runtime.PeelSubtables, which adds context cancellation
// and admission control. PeelSubtables runs on the package-default
// Runtime.
func PeelSubtables(g *Hypergraph, k int) *PeelResult {
	res, err := DefaultRuntime().PeelSubtables(context.Background(), g, k, PeelOptions{})
	if err != nil {
		// See PeelParallel: preserve the cannot-fail contract.
		return core.Subtables(g, k, core.Options{})
	}
	return res
}

// Threshold returns the k-core emptiness threshold c*(k,r) of Equation
// (2.1) and its argmin x*. Below c*(k,r) peeling empties the core w.h.p.
func Threshold(k, r int) (cstar, xstar float64) { return threshold.Threshold(k, r) }

// CoreFraction returns the limiting fraction of vertices in the k-core at
// density c (zero below the threshold).
func CoreFraction(k, r int, c float64) float64 { return threshold.CoreFraction(k, r, c) }

// PredictRounds returns the idealized number of parallel peeling rounds
// for an n-vertex instance at parameters p, and whether the recurrence
// terminates within maxRounds (it does not above the threshold).
// Parameters outside the paper's scope (k or r < 2, negative density)
// are reported as an error, never a panic.
func PredictRounds(p RecurrenceParams, n float64, maxRounds int) (rounds int, ok bool, err error) {
	return p.PredictRounds(n, maxRounds)
}

// NewIBLT returns an empty Invertible Bloom Lookup Table with at least
// cells cells split into r subtables.
func NewIBLT(cells, r int, seed uint64) *IBLT { return iblt.New(cells, r, seed) }

// NewErasureCode returns a Biff-style erasure code with the given number
// of check cells and r hash positions per symbol (r in [3, 8]).
func NewErasureCode(checkCells, r int, seed uint64) *ErasureCode {
	return erasure.NewCode(checkCells, r, seed)
}

// BuildMPHF builds a minimal perfect hash function over distinct keys
// using γ = 1.23 table overhead (edge density just below c*(2,3)). It
// runs on the package-default Runtime; servers should use
// Runtime.BuildMPHF for cancellation and admission control.
func BuildMPHF(keys []uint64, seed uint64) (*MPHF, error) {
	f, err := DefaultRuntime().BuildMPHF(context.Background(), keys, seed)
	if errors.Is(err, ErrRuntimeClosed) {
		// Only reachable if the default Runtime was shut down; keep the
		// historical behavior (degraded to inline serial), consistent
		// with PeelParallel's fallback.
		return mphf.Build(keys, mphf.DefaultGamma, seed, 10)
	}
	return f, err
}

// ErrMPHFBuildFailed is the sentinel wrapped by MPHF build errors when
// every seed attempt left a non-empty 2-core; the error message carries
// the last attempt's survivor count ("N edges left in 2-core after
// attempt T") for maxTries/γ tuning. Match with errors.Is.
var ErrMPHFBuildFailed = mphf.ErrBuildFailed

// ErrStaticMapBuildFailed is the corresponding sentinel for static-map
// (Bloomier) builds.
var ErrStaticMapBuildFailed = bloomier.ErrBuildFailed

// StaticMap is a Bloomier-style static key → value map built by peeling;
// see BuildStaticMap.
type StaticMap = bloomier.Filter

// BuildStaticMap builds an immutable map from distinct keys to values in
// ~1.23 slots per key, with three-hash XOR lookups (Bloomier filter /
// static function retrieval — reference [4] of the paper). The build is
// byte-identical at every worker count; serialize it with
// (*StaticMap).Bytes and reload it zero-copy with OpenStaticMap.
func BuildStaticMap(keys, values []uint64, seed uint64) (*StaticMap, error) {
	return bloomier.Build(keys, values, bloomier.DefaultGamma, seed, 10)
}

// BuildStaticMapParallel builds the same map as BuildStaticMap.
//
// Deprecated: the subround construction pipeline has been folded into
// the single ordered-path implementation (fully parallel and bit-stable
// at every worker count), so this is now an alias of BuildStaticMap.
func BuildStaticMapParallel(keys, values []uint64, seed uint64) (*StaticMap, error) {
	return BuildStaticMap(keys, values, seed)
}

// PeelDepths returns, per vertex, the parallel round in which it would be
// peeled (core.InCore = -1 for k-core members) — the structural "peeling
// wave" the branching-process analysis models.
func PeelDepths(g *Hypergraph, k int) []int32 { return core.Depths(g, k) }

// CorenessAll returns each vertex's coreness: the largest k for which the
// vertex survives in the k-core.
func CorenessAll(g *Hypergraph) []int32 { return core.Coreness(g) }

// NewRandomXORSAT returns a random r-XORSAT instance with m equations
// over n variables.
func NewRandomXORSAT(n, m, r int, seed uint64) *XORSATInstance {
	return xorsat.Random(n, m, r, rng.New(seed))
}

// ReconcileSets runs the full two-message IBLT set-reconciliation
// protocol (strata-estimator sizing + subtracted-table decode) between
// two key sets, returning each side's private keys and the total bytes a
// networked deployment would transfer. headroom >= 1.25 oversizes the
// difference table for safety. It runs on the package-default Runtime;
// servers should use Runtime.Reconcile for cancellation and admission
// control.
func ReconcileSets(local, remote []uint64, seed uint64, headroom float64) (onlyLocal, onlyRemote []uint64, wireBytes int, err error) {
	onlyLocal, onlyRemote, wireBytes, err = DefaultRuntime().Reconcile(context.Background(), local, remote, seed, headroom)
	if errors.Is(err, ErrRuntimeClosed) {
		// See BuildMPHF: preserve pre-Runtime behavior after a default-
		// Runtime shutdown.
		return iblt.Reconcile(local, remote, seed, headroom)
	}
	return onlyLocal, onlyRemote, wireBytes, err
}

// SolveXORSAT solves an instance by peeling plus Gaussian elimination on
// the 2-core; it returns xorsat.ErrUnsatisfiable for inconsistent
// systems.
func SolveXORSAT(in *XORSATInstance) ([]uint8, error) {
	assign, _, err := in.Solve()
	return assign, err
}

// WorkerPool is a persistent set of worker goroutines shared by peeling
// jobs. A Runtime owns one (Runtime.Pool exposes it); the deprecated
// ...WithPool / Options.Pool entry points accept one directly.
type WorkerPool = parallel.Pool

// NewWorkerPool starts a pool of the given size (workers <= 0 selects
// GOMAXPROCS). Close it when done.
//
// Deprecated: use NewRuntime, which owns a pool, adds admission control,
// cancellation, graceful Shutdown, and Stats. NewWorkerPool remains for
// callers of the deprecated ...WithPool entry points.
func NewWorkerPool(workers int) *WorkerPool { return parallel.NewPool(workers) }

// JobGroup runs independent peeling jobs concurrently on one shared
// WorkerPool; see NewJobGroup.
//
// Deprecated: use Runtime.Go, which adds context-aware admission and
// cancellation and is drained by Runtime.Shutdown.
type JobGroup = parallel.Group

// NewJobGroup returns a JobGroup whose jobs execute on pool. maxJobs > 0
// bounds how many jobs run simultaneously (admission control for
// servers); <= 0 means unbounded. Each job receives the shared pool and
// should call the ...WithPool variants so all its parallelism stays on
// it.
//
// Deprecated: use Runtime.Go with NewRuntime — the same admission
// bound (RuntimeOptions.MaxJobs) plus context cancellation:
//
//	rt := repro.NewRuntime(repro.RuntimeOptions{MaxJobs: 8})
//	defer rt.Shutdown(context.Background())
//	for _, req := range requests {
//	    wait, _ := rt.Go(ctx, func(ctx context.Context, p *repro.WorkerPool) error {
//	        res, err := req.table.DecodeParallelFrontierCtx(ctx, p)
//	        ...
//	    })
//	}
func NewJobGroup(pool *WorkerPool, maxJobs int) *JobGroup { return pool.NewGroup(maxJobs) }

// BuildMPHFWithPool is BuildMPHF on an explicit shared pool.
//
// Deprecated: use Runtime.BuildMPHF.
func BuildMPHFWithPool(keys []uint64, seed uint64, pool *WorkerPool) (*MPHF, error) {
	return mphf.BuildWithPool(keys, mphf.DefaultGamma, seed, 10, pool)
}

// BuildStaticMapWithPool is BuildStaticMap on an explicit shared pool.
//
// Deprecated: use Runtime.BuildStaticMap.
func BuildStaticMapWithPool(keys, values []uint64, seed uint64, pool *WorkerPool) (*StaticMap, error) {
	return bloomier.BuildWithPool(keys, values, bloomier.DefaultGamma, seed, 10, pool)
}

// ReconcileSetsWithPool is ReconcileSets on an explicit shared pool.
//
// Deprecated: use Runtime.Reconcile.
func ReconcileSetsWithPool(local, remote []uint64, seed uint64, headroom float64, pool *WorkerPool) (onlyLocal, onlyRemote []uint64, wireBytes int, err error) {
	return iblt.ReconcileWithPool(local, remote, seed, headroom, pool)
}
