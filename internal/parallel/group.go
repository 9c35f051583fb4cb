package parallel

import (
	"context"
	"errors"
	"sync"
)

// Group runs independent jobs concurrently on one shared Pool — the
// multi-tenant serving primitive. Each job is a function that receives
// the shared pool and runs on its own goroutine, acting as worker 0 of
// every For/Run call it makes; inner parallelism comes from the pool's
// helpers, which all jobs share. Because batch dispatch rotates across
// helpers, many small jobs (the O(log log n) tail rounds of concurrent
// peels) spread over the helper set instead of piling onto the first
// channels.
//
// Jobs are admitted to the pool via Enter, so Pool.Shutdown counts and
// drains them; a job submitted after shutdown began fails with ErrClosed
// (recorded as the Group error) without running.
//
// Jobs must keep per-worker state (round buffers, shards) private to the
// job: worker IDs are only serialized within a single For/Run call, and
// concurrent jobs each see the full ID range. The ...Ctx decode and
// build paths in internal/iblt, internal/mphf, internal/bloomier, and
// internal/erasure allocate their buffers per call, so they are safe to
// run as Group jobs as-is.
//
// A Group is not reusable after Wait, and jobs must not call Go on their
// own Group. The zero Group is not valid; use Pool.NewGroup.
//
// Group predates the repro Runtime, which packages the same admission
// and draining behind a context-first API; new code should prefer the
// Runtime.
type Group struct {
	pool *Pool
	sem  chan struct{}
	wg   sync.WaitGroup

	mu  sync.Mutex
	err error
}

// NewGroup returns a Group whose jobs execute on p. maxJobs > 0 bounds
// the number of jobs running simultaneously (Go blocks while the bound
// is reached), which caps the per-job buffer memory and goroutine count
// of a server admitting unbounded requests; maxJobs <= 0 means no bound.
func (p *Pool) NewGroup(maxJobs int) *Group {
	g := &Group{pool: p}
	if maxJobs > 0 {
		g.sem = make(chan struct{}, maxJobs)
	}
	return g
}

// Go submits a job. The job starts immediately on its own goroutine
// unless the Group's concurrency bound is reached, in which case Go
// blocks until a running job finishes. The first non-nil error across
// jobs is retained for Wait; later jobs still run (peeling jobs are
// independent — one failed decode must not cancel the rest).
func (g *Group) Go(job func(pool *Pool) error) {
	if g.sem != nil {
		g.sem <- struct{}{}
	}
	g.spawn(func() error { return job(g.pool) })
}

// GoCtx submits a job that receives ctx and should abandon work promptly
// once it is done (the ctx-threaded decode/build paths and Pool.ForCtx
// do this at their round and batch barriers). Admission — waiting for a
// slot under the Group's concurrency bound — also respects ctx: if ctx
// is done first, the job never starts and GoCtx returns ctx.Err().
// GoCtx returns nil once the job has been handed to its goroutine; the
// job's own error is reported through Wait. A job whose error is the
// context's is additionally counted in the pool's JobsCanceled stat.
func (g *Group) GoCtx(ctx context.Context, job func(ctx context.Context, pool *Pool) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if g.sem != nil {
		select {
		case g.sem <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	g.spawn(func() error {
		err := job(ctx, g.pool)
		if IsCancellation(err) {
			g.pool.NoteCanceled()
		}
		return err
	})
	return nil
}

// spawn runs fn as an admitted pool job on a fresh goroutine, releasing
// the Group's semaphore slot and recording the first error. A panic in
// the job is recovered at this boundary and recorded as ErrJobPanicked
// (and counted in the pool's JobsPanicked), so one poisoned job cannot
// kill the process or wedge the Group's Wait; sibling jobs run on.
func (g *Group) spawn(fn func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		if g.sem != nil {
			defer func() { <-g.sem }()
		}
		exit, err := g.pool.Enter()
		if err == nil {
			defer exit()
			err = recoverJob(fn)
			if errors.Is(err, ErrJobPanicked) {
				g.pool.NotePanicked()
			}
		}
		if err != nil {
			g.mu.Lock()
			if g.err == nil {
				g.err = err
			}
			g.mu.Unlock()
		}
	}()
}

// Wait blocks until every submitted job has finished and returns the
// first error any job reported (nil if all succeeded).
func (g *Group) Wait() error {
	g.wg.Wait()
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// Pool returns the shared pool jobs run on.
func (g *Group) Pool() *Pool { return g.pool }
