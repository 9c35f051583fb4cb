package repro

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bloomier"
	"repro/internal/core"
	"repro/internal/iblt"
	"repro/internal/mphf"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// ErrRuntimeClosed is returned for work submitted to a Runtime after
// Shutdown began, and by the second and later Shutdown calls. It wraps
// the pool-level sentinel, so errors.Is works against either.
var ErrRuntimeClosed = parallel.ErrClosed

// ErrOverloaded is returned by TryGo when the Runtime's MaxJobs bound is
// saturated: the job was shed — turned away immediately, never queued and
// never run — and counted in Stats().JobsShed. Shedding is the serving
// layer's defense against unbounded queueing; a shed job is always safe
// to retry after a backoff, because it never started.
var ErrOverloaded = errors.New("repro: runtime overloaded, job shed")

// ErrJobPanicked is the sentinel matched (errors.Is) by jobs that died
// to a panic recovered inside the Runtime: the pool recovers panics at
// chunk boundaries (completing the round barrier so sibling workers and
// concurrent jobs never hang) and the Runtime recovers them at the job
// boundary, so a poisoned job surfaces as this error — carrying the
// panic value and stack via *PanicError — instead of killing the
// process. The pool stays healthy; subsequent jobs run normally.
var ErrJobPanicked = parallel.ErrJobPanicked

// PanicError is the concrete error behind ErrJobPanicked: the recovered
// panic value plus the panicking goroutine's stack.
type PanicError = parallel.PanicError

// ErrReconcileIncomplete is the sentinel matched by Reconcile errors
// when the difference table failed to decode completely — the
// probabilistic failure mode headroom escalation (Policy) retries.
var ErrReconcileIncomplete = iblt.ErrDecodeIncomplete

// Policy is the Runtime's failure-handling policy: what happens when a
// job runs long, when a probabilistic build lands above the 2-core
// threshold, or when a reconciliation table fails to decode. The zero
// Policy does nothing extra (no timeout, no retries) — the pre-policy
// behavior. Policies are applied per Runtime handle (RuntimeOptions)
// and overridden per call site with WithPolicy.
type Policy struct {
	// JobTimeout is a default per-job deadline: jobs whose caller ctx
	// carries no earlier deadline are canceled (at their next round
	// barrier) after this long, returning context.DeadlineExceeded.
	// <= 0 means no default deadline. A caller deadline that is
	// earlier always wins (the timeout never extends it).
	JobTimeout time.Duration

	// BuildRetries is how many extra whole-build attempts BuildMPHF /
	// BuildStaticMap (and the Rebuild* wrappers) make after a build
	// fails with a non-empty 2-core (ErrMPHFBuildFailed /
	// ErrStaticMapBuildFailed). Each retry escalates to a jittered
	// seed — Mix64 of the original seed and the retry index — so the
	// retry's whole seed ladder is decorrelated from the failed one
	// rather than walking the same sequence again. Non-probabilistic
	// failures (duplicate keys, cancellation, panics) are never
	// retried. 0 means fail on the first exhausted ladder.
	BuildRetries int

	// ReconcileRetries is how many extra attempts Reconcile makes when
	// the difference table fails to decode (ErrReconcileIncomplete) —
	// graceful degradation for an undersized estimate instead of a
	// terminal error. Each retry escalates the headroom by
	// HeadroomStep (capped at MaxHeadroom), oversizing the next
	// difference table. 0 means fail on the first incomplete decode.
	ReconcileRetries int

	// HeadroomStep is the headroom added per Reconcile retry;
	// <= 0 selects 0.25.
	HeadroomStep float64

	// MaxHeadroom caps the escalated headroom; <= 0 selects 4.0.
	MaxHeadroom float64
}

func (p Policy) headroomStep() float64 {
	if p.HeadroomStep > 0 {
		return p.HeadroomStep
	}
	return 0.25
}

func (p Policy) maxHeadroom() float64 {
	if p.MaxHeadroom > 0 {
		return p.MaxHeadroom
	}
	return 4.0
}

// applyTimeout derives the job ctx under the policy's default deadline.
// The returned cancel must always be called.
func (p Policy) applyTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	if p.JobTimeout <= 0 {
		return ctx, func() {}
	}
	if _, ok := ctx.Deadline(); ok {
		// The caller set an explicit deadline; respect it as-is (even
		// if later than JobTimeout — an explicit deadline is a
		// stronger statement than a handle-wide default).
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, p.JobTimeout)
}

// ReconcileMeta reports how a policy-driven reconciliation converged:
// how many attempts it took (1 when the first decode completed), the
// wire-byte cost accumulated across every attempt — each retry re-ships
// a strata estimator and a larger difference table, exactly as a
// networked deployment would — and the headroom of the final attempt.
// Serving layers surface it as reply metadata so clients can observe
// escalation.
type ReconcileMeta struct {
	Attempts      int
	WireBytes     int
	FinalHeadroom float64
}

// Reconcile runs the policy's headroom-escalating reconciliation loop on
// an explicit pool, without Runtime admission — the building block for
// callers that already hold an admitted job slot (a Runtime.Go / TryGo
// job, e.g. the wire server in internal/server). Runtime.Reconcile is
// this plus admission. The returned metadata carries the attempt count
// and the accumulated wire bytes; on error the metadata still reflects
// the attempts made. Deadlines are the caller's concern (the admission
// wrappers apply Policy.JobTimeout).
func (p Policy) Reconcile(ctx context.Context, local, remote []uint64, seed uint64, headroom float64, pool *parallel.Pool) (onlyLocal, onlyRemote []uint64, meta ReconcileMeta, err error) {
	h := headroom
	for attempt := 0; ; attempt++ {
		var wb int
		onlyLocal, onlyRemote, wb, err = iblt.ReconcileCtx(ctx, local, remote, seed, h, pool)
		meta.Attempts = attempt + 1
		meta.WireBytes += wb
		meta.FinalHeadroom = h
		if err == nil || attempt >= p.ReconcileRetries || !errors.Is(err, iblt.ErrDecodeIncomplete) {
			return onlyLocal, onlyRemote, meta, err
		}
		h += p.headroomStep()
		if max := p.maxHeadroom(); h > max {
			h = max
		}
	}
}

// BuildMPHF runs the policy's seed-escalating MPHF build loop on an
// explicit pool, without Runtime admission; see Policy.Reconcile for
// when to use the policy-level form. Only whole-ladder build failures
// (ErrMPHFBuildFailed) are retried, each retry with a jittered escalated
// seed; duplicate-key errors, cancellations, and panics are returned
// as-is.
func (p Policy) BuildMPHF(ctx context.Context, keys []uint64, seed uint64, pool *parallel.Pool) (*MPHF, error) {
	s := seed
	for attempt := 0; ; attempt++ {
		f, err := mphf.BuildCtx(ctx, keys, mphf.DefaultGamma, s, 10, pool)
		if err == nil || attempt >= p.BuildRetries || !errors.Is(err, mphf.ErrBuildFailed) {
			return f, err
		}
		s = escalateSeed(seed, attempt+1)
	}
}

// BuildStaticMap is Policy.BuildMPHF for static-map (Bloomier) builds.
func (p Policy) BuildStaticMap(ctx context.Context, keys, values []uint64, seed uint64, pool *parallel.Pool) (*StaticMap, error) {
	s := seed
	for attempt := 0; ; attempt++ {
		f, err := bloomier.BuildCtx(ctx, keys, values, bloomier.DefaultGamma, s, 10, pool)
		if err == nil || attempt >= p.BuildRetries || !errors.Is(err, bloomier.ErrBuildFailed) {
			return f, err
		}
		s = escalateSeed(seed, attempt+1)
	}
}

// escalateSeed derives the jittered seed for build retry attempt
// (1-based): a Mix64 of the original seed and the attempt index, so
// each retry's 10-seed ladder is decorrelated from every other's.
func escalateSeed(seed uint64, attempt int) uint64 {
	return rng.Mix64(seed ^ uint64(attempt)*0xd1342543de82ef95)
}

// RuntimeOptions configure NewRuntime.
type RuntimeOptions struct {
	// Workers is the worker-pool size all jobs share; <= 0 selects
	// GOMAXPROCS.
	Workers int

	// MaxJobs bounds how many jobs run simultaneously; admission of the
	// next job blocks (respecting its context) until a slot frees.
	// <= 0 means unbounded. A bound caps the per-job buffer memory and
	// goroutine count of a server admitting unbounded requests.
	MaxJobs int

	// Policy is the Runtime's default failure-handling policy (timeouts
	// and retries); override it per call site with WithPolicy. The zero
	// Policy adds no timeout and no retries.
	Policy Policy
}

// RuntimeStats is a snapshot of the Runtime's backpressure and failure
// counters: the shared pool's counters (see parallel.Stats) plus the
// Runtime's own.
type RuntimeStats struct {
	parallel.Stats

	// ShutdownErrors counts errors from the background pool release
	// that finishes an expired-ctx Shutdown — e.g. the pool was already
	// shut down underneath the Runtime. Always 0 for a Runtime whose
	// Shutdown completed synchronously.
	ShutdownErrors int64
}

// runtimeCore is the state shared by every handle onto one Runtime:
// the pool, admission bookkeeping, and shutdown state. WithPolicy
// returns a new *Runtime view over the same core, so policy overrides
// never fork the admission or drain machinery.
type runtimeCore struct {
	pool *parallel.Pool
	sem  chan struct{}

	mu     sync.Mutex
	closed bool
	active int           // admitted jobs currently running
	idle   chan struct{} // created by Shutdown when it must wait; closed at active == 0

	shutdownErrs atomic.Int64 // background pool-release failures (see Shutdown)
}

// Runtime is the serving handle for the peeling runtime: one persistent
// worker pool, shared by any number of concurrent jobs, behind a
// context-first API. Every method admits the request as a job (subject
// to MaxJobs), runs it with all parallelism pinned to the shared pool,
// and honors ctx cancellation at the round/subround barriers of the
// underlying peeling process — the paper's O(log log n) round structure
// is what makes cancellation cheap: each job already crosses a barrier
// many times, so a single check per barrier aborts a canceled job within
// one round of extra work.
//
// Failure handling is policy-driven (Policy, WithPolicy): per-job
// default timeouts, seed-escalating build retries, and headroom-
// escalating reconcile retries. Panics inside a job are recovered at
// the chunk and job boundaries and surfaced as ErrJobPanicked — one
// poisoned request cannot kill the process, hang a barrier, or poison
// the pool for its neighbors.
//
// A Runtime is safe for concurrent use. Shut it down with Shutdown,
// which stops admission, drains in-flight jobs, and releases the
// workers. Jobs whose context is canceled return ctx.Err() and are
// counted in Stats().JobsCanceled.
//
//	rt := repro.NewRuntime(repro.RuntimeOptions{MaxJobs: 32})
//	defer rt.Shutdown(context.Background())
//	res, err := rt.Decode(ctx, table)
type Runtime struct {
	core   *runtimeCore
	policy Policy
}

// NewRuntime starts a Runtime with its own worker pool.
func NewRuntime(opts RuntimeOptions) *Runtime {
	rc := &runtimeCore{pool: parallel.NewPool(opts.Workers)}
	if opts.MaxJobs > 0 {
		rc.sem = make(chan struct{}, opts.MaxJobs)
	}
	return &Runtime{core: rc, policy: opts.Policy}
}

// WithPolicy returns a handle onto the same Runtime — same pool, same
// admission bound, same shutdown state — with p as its failure policy.
// It is the per-call override: the returned handle is cheap, immutable,
// and safe to use concurrently with the original.
//
//	gen, err := rt.WithPolicy(repro.Policy{BuildRetries: 2}).
//	    RebuildStaticMap(ctx, tbl, keys, values, seed)
func (rt *Runtime) WithPolicy(p Policy) *Runtime {
	return &Runtime{core: rt.core, policy: p}
}

// Policy returns the handle's failure policy.
func (rt *Runtime) Policy() Policy { return rt.policy }

var (
	defaultRuntime   *Runtime
	defaultRuntimeMu sync.Mutex
)

// DefaultRuntime returns the lazily created process-wide Runtime backing
// the package's one-shot convenience functions (BuildMPHF,
// ReconcileSets). It runs on the process-wide default worker pool
// (shared with parallel.Default) with unbounded admission and the zero
// Policy. Servers should create their own Runtime to pick
// Workers/MaxJobs/Policy and to own shutdown.
//
// The default Runtime is supervised: if some component shuts it down,
// the next DefaultRuntime call replaces it with a fresh one on a fresh
// default pool (parallel.Default is likewise self-healing), so the
// package-level helpers keep working for the rest of the process.
// Handles to the old Runtime keep their post-shutdown semantics
// (ErrRuntimeClosed).
func DefaultRuntime() *Runtime {
	defaultRuntimeMu.Lock()
	defer defaultRuntimeMu.Unlock()
	if rt := defaultRuntime; rt != nil {
		rt.core.mu.Lock()
		closed := rt.core.closed
		rt.core.mu.Unlock()
		if !closed && rt.core.pool.Open() {
			return rt
		}
	}
	defaultRuntime = &Runtime{core: &runtimeCore{pool: parallel.Default()}}
	return defaultRuntime
}

// Workers returns the size of the Runtime's worker pool.
func (rt *Runtime) Workers() int { return rt.core.pool.Workers() }

// Pool returns the underlying shared worker pool, for callers that pass
// it to the internal ...Ctx(ctx, ..., pool) entry points directly.
func (rt *Runtime) Pool() *WorkerPool { return rt.core.pool }

// Stats returns a snapshot of the Runtime's backpressure and failure
// counters: queue depth and helper occupancy of the shared pool, the
// admitted/rejected/canceled/panicked job totals, and the Runtime's
// background shutdown-error count. Serving layers use it to size
// MaxJobs and detect saturation.
func (rt *Runtime) Stats() RuntimeStats {
	return RuntimeStats{
		Stats:          rt.core.pool.Stats(),
		ShutdownErrors: rt.core.shutdownErrs.Load(),
	}
}

// admit reserves a job slot, blocking while the MaxJobs bound is reached
// (admission respects ctx) and failing with ErrRuntimeClosed once
// Shutdown has begun.
func (rt *Runtime) admit(ctx context.Context) error {
	rc := rt.core
	if err := ctx.Err(); err != nil {
		return err
	}
	if rc.sem != nil {
		select {
		case rc.sem <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	rc.mu.Lock()
	if rc.closed {
		rc.mu.Unlock()
		if rc.sem != nil {
			<-rc.sem
		}
		rc.pool.NoteRejected()
		return ErrRuntimeClosed
	}
	rc.active++
	rc.mu.Unlock()
	return nil
}

// tryAdmit is admit with shed-instead-of-block semantics: when the
// MaxJobs bound is saturated it fails immediately with ErrOverloaded
// (counted in Stats().JobsShed) rather than waiting for a slot.
func (rt *Runtime) tryAdmit(ctx context.Context) error {
	rc := rt.core
	if err := ctx.Err(); err != nil {
		return err
	}
	if rc.sem != nil {
		select {
		case rc.sem <- struct{}{}:
		default:
			rc.pool.NoteShed()
			return ErrOverloaded
		}
	}
	rc.mu.Lock()
	if rc.closed {
		rc.mu.Unlock()
		if rc.sem != nil {
			<-rc.sem
		}
		rc.pool.NoteRejected()
		return ErrRuntimeClosed
	}
	rc.active++
	rc.mu.Unlock()
	return nil
}

// finish releases the job slot reserved by admit, completing a pending
// shutdown when the last job leaves.
func (rt *Runtime) finish() {
	rc := rt.core
	if rc.sem != nil {
		<-rc.sem
	}
	rc.mu.Lock()
	rc.active--
	if rc.active == 0 && rc.idle != nil {
		close(rc.idle)
		rc.idle = nil
	}
	rc.mu.Unlock()
}

// runJob executes job synchronously on the calling goroutine as an
// admitted job of the Runtime and its pool, under the policy's default
// timeout.
func (rt *Runtime) runJob(ctx context.Context, job func(ctx context.Context, pool *parallel.Pool) error) error {
	ctx, cancel := rt.policy.applyTimeout(ctx)
	defer cancel()
	if err := rt.admit(ctx); err != nil {
		return err
	}
	defer rt.finish()
	return rt.execute(ctx, job)
}

// execute runs an already admitted job on the current goroutine,
// registering it with the pool (for drain accounting), recovering any
// panic at the job boundary (ErrJobPanicked), and recording
// cancellations and panics in the pool stats.
func (rt *Runtime) execute(ctx context.Context, job func(ctx context.Context, pool *parallel.Pool) error) error {
	rc := rt.core
	exit, err := rc.pool.Enter()
	if err != nil {
		return err
	}
	defer exit()
	err = func() (jerr error) {
		defer func() {
			if v := recover(); v != nil {
				jerr = parallel.NewPanicError(v)
			}
		}()
		return job(ctx, rc.pool)
	}()
	switch {
	case errors.Is(err, ErrJobPanicked):
		rc.pool.NotePanicked()
	case parallel.IsCancellation(err):
		rc.pool.NoteCanceled()
	}
	return err
}

// Go submits an arbitrary job to run asynchronously on the shared pool —
// the escape hatch for workloads the typed methods don't cover. The job receives ctx and the shared pool
// and should pass them to the ctx-aware entry points (or check ctx at
// its own barriers). Go blocks only for admission (MaxJobs), respecting
// ctx; it returns a wait function that blocks until the job finishes and
// reports its error. Discarding the wait function is allowed — the job
// still runs and Shutdown still drains it. A job that panics reports
// ErrJobPanicked through the wait function instead of crashing the
// process.
//
//	wait, err := rt.Go(ctx, func(ctx context.Context, p *repro.WorkerPool) error {
//	    res, err := table.DecodeParallelFrontierCtx(ctx, p)
//	    ...
//	})
func (rt *Runtime) Go(ctx context.Context, job func(ctx context.Context, pool *WorkerPool) error) (wait func() error, err error) {
	ctx, cancel := rt.policy.applyTimeout(ctx)
	if err := rt.admit(ctx); err != nil {
		cancel()
		return nil, err
	}
	errc := make(chan error, 1)
	//peelvet:allow nospawn -- this is Runtime.Go itself: the job is already admitted, registered with the pool via execute (drain accounting), and panic-isolated at the job boundary
	go func() {
		defer cancel()
		defer rt.finish()
		errc <- rt.execute(ctx, job)
	}()
	var once sync.Once
	var res error
	return func() error {
		once.Do(func() { res = <-errc })
		return res
	}, nil
}

// TryGo is Go with load shedding instead of queueing: admission never
// blocks. If the MaxJobs bound is saturated the job is shed — TryGo
// returns ErrOverloaded immediately, the job never ran, and the shed is
// counted in Stats().JobsShed — so an accept loop sitting in front of
// the Runtime can answer "overloaded, retry later" in constant time
// instead of stacking goroutines behind a full semaphore. A shed job is
// always safe to retry: it was rejected before any side effect. All
// other semantics (panic isolation, drain accounting, the wait
// function) match Go.
func (rt *Runtime) TryGo(ctx context.Context, job func(ctx context.Context, pool *WorkerPool) error) (wait func() error, err error) {
	ctx, cancel := rt.policy.applyTimeout(ctx)
	if err := rt.tryAdmit(ctx); err != nil {
		cancel()
		return nil, err
	}
	errc := make(chan error, 1)
	//peelvet:allow nospawn -- this is TryGo, Runtime.Go's shedding twin: the job is already admitted, registered with the pool via execute (drain accounting), and panic-isolated at the job boundary
	go func() {
		defer cancel()
		defer rt.finish()
		errc <- rt.execute(ctx, job)
	}()
	var once sync.Once
	var res error
	return func() error {
		once.Do(func() { res = <-errc })
		return res
	}, nil
}

// Shutdown gracefully drains the Runtime: admission stops immediately
// (subsequent calls return ErrRuntimeClosed), in-flight jobs run to
// completion, and the worker pool is then released. It returns nil once
// everything has drained. If ctx expires first it returns ctx.Err();
// the Runtime keeps draining in the background and the workers are
// released when the last job finishes (Go cannot force-kill goroutines —
// cancel the jobs' own contexts to make the drain converge faster). An
// error from that background release (e.g. the pool was already shut
// down underneath the Runtime) is counted in Stats().ShutdownErrors
// rather than silently dropped. Calling Shutdown again returns
// ErrRuntimeClosed.
func (rt *Runtime) Shutdown(ctx context.Context) error {
	rc := rt.core
	rc.mu.Lock()
	if rc.closed {
		rc.mu.Unlock()
		return ErrRuntimeClosed
	}
	rc.closed = true
	if rc.active == 0 {
		// Already drained: complete synchronously — even an expired ctx
		// reports success for a shutdown that has nothing left to wait
		// for (the pool drain below is likewise immediate).
		rc.mu.Unlock()
		return rc.pool.Shutdown(ctx)
	}
	idle := make(chan struct{})
	rc.idle = idle
	rc.mu.Unlock()

	select {
	case <-idle:
		return rc.pool.Shutdown(ctx)
	case <-ctx.Done():
		//peelvet:allow nospawn -- shutdown plumbing: the background drain outlives every job (nothing left to isolate) and its failure is surfaced via Stats().ShutdownErrors
		go func() {
			<-idle
			if err := rc.pool.Shutdown(context.Background()); err != nil {
				rc.shutdownErrs.Add(1)
			}
		}()
		return ctx.Err()
	}
}

// Peel runs the round-synchronous parallel peeling process on the
// shared pool. opts selects scan policy and round cap; its Pool field is
// ignored (the Runtime's pool always wins).
// Cancellation is checked at every round barrier: a canceled peel stops
// within one round of extra work and returns (nil, ctx.Err()).
func (rt *Runtime) Peel(ctx context.Context, g *Hypergraph, k int, opts PeelOptions) (*PeelResult, error) {
	var res *PeelResult
	err := rt.runJob(ctx, func(ctx context.Context, pool *parallel.Pool) error {
		opts.Pool = pool
		var err error
		res, err = core.ParallelCtx(ctx, g, k, opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// PeelOrdered runs the ordered round-synchronous peeling process on the
// shared pool: the same rounds and k-core as Peel, plus a round-major
// peel order and a minimum-endpoint edge orientation, for any
// hypergraph. The result is bit-identical at every worker count (see
// core.OrderedResult). The MPHF and static-map builders do not use it:
// their graphs are 3-partite and peel in subrounds (core.PeelKeys).
// Cancellation is checked at every round barrier.
func (rt *Runtime) PeelOrdered(ctx context.Context, g *Hypergraph, k int, opts PeelOptions) (*OrderedPeelResult, error) {
	var res *OrderedPeelResult
	err := rt.runJob(ctx, func(ctx context.Context, pool *parallel.Pool) error {
		opts.Pool = pool
		var err error
		res, err = core.ParallelOrderCtx(ctx, g, k, opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// PeelSubtables runs the Appendix B subround peeling process on the
// shared pool; g must be partitioned. Cancellation is checked at every
// subround barrier.
func (rt *Runtime) PeelSubtables(ctx context.Context, g *Hypergraph, k int, opts PeelOptions) (*PeelResult, error) {
	var res *PeelResult
	err := rt.runJob(ctx, func(ctx context.Context, pool *parallel.Pool) error {
		opts.Pool = pool
		var err error
		res, err = core.SubtablesCtx(ctx, g, k, opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Decode peels an IBLT with the work-efficient parallel frontier
// decoder on the shared pool. Decoding is destructive — Clone first if
// the table is still needed — and a canceled decode leaves the table
// partially decoded (discard it). Cancellation is checked at every
// subround barrier.
func (rt *Runtime) Decode(ctx context.Context, t *IBLT) (*IBLTParallelResult, error) {
	var res *IBLTParallelResult
	err := rt.runJob(ctx, func(ctx context.Context, pool *parallel.Pool) error {
		var err error
		res, err = t.DecodeParallelFrontierCtx(ctx, pool)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// BuildMPHF builds a minimal perfect hash function over distinct keys
// (γ = 1.23, up to 10 seed attempts) with every phase on the shared
// pool: hashing, the subround key peel, and the subround-parallel
// g-value assignment. The resulting function is identical at every
// Runtime size (the key peel is bit-stable across worker counts).
// Cancellation is checked at every subround barrier of every attempt,
// so a canceled build aborts within one peel subround of extra work —
// not one phase.
//
// Under a Policy with BuildRetries > 0, a build whose whole seed ladder
// fails (ErrMPHFBuildFailed) is retried with a jittered escalated seed;
// duplicate-key errors, cancellations, and panics are never retried.
func (rt *Runtime) BuildMPHF(ctx context.Context, keys []uint64, seed uint64) (*MPHF, error) {
	var f *MPHF
	err := rt.runJob(ctx, func(ctx context.Context, pool *parallel.Pool) error {
		var err error
		f, err = rt.policy.BuildMPHF(ctx, keys, seed, pool)
		return err
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// BuildStaticMap builds an immutable key → value map (Bloomier filter)
// with every phase — hashing, the subround key peel, and
// subround-parallel back-substitution — on the shared pool. The
// resulting map is byte-identical at every Runtime size (the key peel
// is bit-stable across worker counts), so a map built here seals the
// same flat image an offline builder box would produce. Cancellation
// is checked at every subround barrier of every attempt.
//
// Build retries under a Policy behave exactly as in BuildMPHF.
func (rt *Runtime) BuildStaticMap(ctx context.Context, keys, values []uint64, seed uint64) (*StaticMap, error) {
	var f *StaticMap
	err := rt.runJob(ctx, func(ctx context.Context, pool *parallel.Pool) error {
		var err error
		f, err = rt.policy.BuildStaticMap(ctx, keys, values, seed, pool)
		return err
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Reconcile runs the full two-message IBLT set-reconciliation protocol
// between two key sets on the shared pool: parallel strata-estimator
// inserts, bulk table inserts, and the frontier decode. headroom >= 1.25
// oversizes the difference table for safety. The returned difference
// sides are sorted (deterministic at every pool size). Cancellation is
// checked between protocol phases and at the decode's subround barriers.
//
// Under a Policy with ReconcileRetries > 0, an incomplete decode
// (ErrReconcileIncomplete — the difference table was undersized for the
// true difference) is retried with the headroom escalated by
// HeadroomStep per attempt, up to MaxHeadroom: graceful degradation —
// some extra wire bytes — instead of a terminal error. wireBytes
// accumulates across attempts, as a networked deployment's would.
func (rt *Runtime) Reconcile(ctx context.Context, local, remote []uint64, seed uint64, headroom float64) (onlyLocal, onlyRemote []uint64, wireBytes int, err error) {
	onlyLocal, onlyRemote, meta, err := rt.ReconcileMeta(ctx, local, remote, seed, headroom)
	return onlyLocal, onlyRemote, meta.WireBytes, err
}

// ReconcileMeta is Reconcile returning the full retry metadata — attempt
// count, accumulated wire bytes, and the final headroom — instead of
// just the byte total. The wire server surfaces this in its reply so
// clients can observe headroom escalation.
func (rt *Runtime) ReconcileMeta(ctx context.Context, local, remote []uint64, seed uint64, headroom float64) (onlyLocal, onlyRemote []uint64, meta ReconcileMeta, err error) {
	err = rt.runJob(ctx, func(ctx context.Context, pool *parallel.Pool) error {
		var jerr error
		onlyLocal, onlyRemote, meta, jerr = rt.policy.Reconcile(ctx, local, remote, seed, headroom, pool)
		return jerr
	})
	if err != nil {
		return nil, nil, meta, err
	}
	return onlyLocal, onlyRemote, meta, nil
}

// EncodeErasure computes the check block of a Biff-style erasure code
// for data, with the per-symbol cell updates fanned out over the shared
// pool (cell-for-cell identical to the serial encoder).
func (rt *Runtime) EncodeErasure(ctx context.Context, code *ErasureCode, data []uint64) ([]ErasureCell, error) {
	var checks []ErasureCell
	err := rt.runJob(ctx, func(ctx context.Context, pool *parallel.Pool) error {
		var err error
		checks, err = code.EncodeCtx(ctx, data, pool)
		return err
	})
	if err != nil {
		return nil, err
	}
	return checks, nil
}

// DecodeErasure reconstructs the missing entries of data in place
// (present[i] reports whether data[i] survived) with both phases on the
// shared pool: parallel subtraction of received symbols, then the
// round-synchronous parallel peel of the missing set. Cancellation is
// checked inside subtraction and at every peeling round barrier; a
// canceled decode leaves data/present partially updated (treat the block
// as abandoned).
func (rt *Runtime) DecodeErasure(ctx context.Context, code *ErasureCode, data []uint64, present []bool, checks []ErasureCell) error {
	return rt.runJob(ctx, func(ctx context.Context, pool *parallel.Pool) error {
		return code.DecodeCtx(ctx, data, present, checks, pool)
	})
}
