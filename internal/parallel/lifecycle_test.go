package parallel

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolNestedForInline is the regression test for the nested-
// submission deadlock: a For issued from inside a batch function of the
// same pool must complete even though the helpers are busy with the
// outer call — the claim-based barrier lets the nested submitter finish
// the range itself and never wait on a helper that hasn't started.
func TestPoolNestedForInline(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()

	const outer, inner = 64, 1000
	var total atomic.Int64
	donech := make(chan struct{})
	go func() {
		defer close(donech)
		// grain 1 forces every outer index onto the parallel path, so
		// helpers (not just worker 0) hit the nested call.
		pool.For(outer, 1, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				// The nested call's chunks may be shared with helpers, so
				// the tally must be synchronized like any per-call state.
				var sum atomic.Int64
				pool.For(inner, 0, func(_, ilo, ihi int) {
					sum.Add(int64(ihi - ilo))
				})
				if sum.Load() != inner {
					t.Errorf("nested For covered %d of %d indices", sum.Load(), inner)
				}
				total.Add(1)
			}
		})
	}()
	select {
	case <-donech:
	case <-time.After(30 * time.Second):
		t.Fatal("nested For deadlocked")
	}
	if got := total.Load(); got != outer {
		t.Fatalf("outer loop ran %d of %d iterations", got, outer)
	}
}

// TestPoolNestedRunInline checks the Run primitive under nesting:
// every worker ID of the nested call is still visited exactly once.
func TestPoolNestedRunInline(t *testing.T) {
	pool := NewPool(3)
	defer pool.Close()
	pool.Run(func(outer int) {
		seen := make([]bool, pool.Workers())
		pool.Run(func(w int) { seen[w] = true })
		for w, ok := range seen {
			if !ok {
				t.Errorf("outer worker %d: nested Run skipped worker %d", outer, w)
			}
		}
	})
}

func TestForCtxCancel(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()

	// Pre-canceled context: no chunk runs.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := atomic.Int64{}
	if err := pool.ForCtx(ctx, 1000, 10, func(_, lo, hi int) { ran.Add(1) }); !errors.Is(err, context.Canceled) {
		t.Fatalf("ForCtx on canceled ctx: err = %v, want Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("ForCtx ran %d chunks on a pre-canceled ctx", ran.Load())
	}

	// Cancel mid-flight: workers stop claiming; at most one extra chunk
	// per worker runs after the cancel lands.
	ctx2, cancel2 := context.WithCancel(context.Background())
	var after atomic.Int64
	var canceled atomic.Bool
	err := pool.ForCtx(ctx2, 1<<20, 64, func(_, lo, hi int) {
		if lo == 0 {
			cancel2()
			canceled.Store(true)
		} else if canceled.Load() {
			after.Add(1)
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ForCtx after mid-flight cancel: err = %v, want Canceled", err)
	}
	// Each of the 4 workers may have been mid-chunk when cancel hit and
	// each claims at most one more before observing done.
	if a := after.Load(); a > int64(2*pool.Workers()) {
		t.Fatalf("ForCtx ran %d chunks after cancel (want ≤ %d)", a, 2*pool.Workers())
	}

	// Background context: identical to For.
	count := pool.NewCounter()
	if err := pool.ForCtx(context.Background(), 1000, 10, func(w, lo, hi int) {
		count.Add(w, int64(hi-lo))
	}); err != nil {
		t.Fatalf("ForCtx(Background): %v", err)
	}
	if count.Sum() != 1000 {
		t.Fatalf("ForCtx(Background) covered %d of 1000", count.Sum())
	}
}

func TestRunRangesCtxCancel(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := atomic.Int64{}
	if err := pool.RunRangesCtx(ctx, 100, 8, func(i, lo, hi int) { ran.Add(1) }); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunRangesCtx on canceled ctx: err = %v", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("RunRangesCtx ran %d pieces on a pre-canceled ctx", ran.Load())
	}
	var pieces atomic.Int64
	if err := pool.RunRangesCtx(context.Background(), 100, 8, func(i, lo, hi int) {
		pieces.Add(1)
	}); err != nil || pieces.Load() != 8 {
		t.Fatalf("RunRangesCtx(Background): err=%v pieces=%d", err, pieces.Load())
	}
}

// TestShutdownDrains submits jobs, shuts down concurrently, and checks
// that shutdown waits for all in-flight jobs and that post-shutdown
// submissions are rejected.
func TestShutdownDrains(t *testing.T) {
	pool := NewPool(4)
	const jobs = 8
	var finished atomic.Int64
	release := make(chan struct{})
	started := sync.WaitGroup{}
	done := sync.WaitGroup{}
	for j := 0; j < jobs; j++ {
		started.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			exit, err := pool.Enter()
			started.Done()
			if err != nil {
				t.Errorf("Enter before shutdown: %v", err)
				return
			}
			defer exit()
			<-release
			// Still allowed to dispatch parallel batches while draining.
			var sum atomic.Int64
			pool.For(10000, 100, func(_, lo, hi int) { sum.Add(int64(hi - lo)) })
			if sum.Load() != 10000 {
				t.Errorf("draining-phase For covered %d of 10000", sum.Load())
			}
			finished.Add(1)
		}()
	}
	started.Wait()

	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- pool.Shutdown(context.Background()) }()

	// Shutdown must not complete while jobs are in flight.
	select {
	case err := <-shutdownErr:
		t.Fatalf("Shutdown returned %v with %d jobs still running", err, jobs)
	case <-time.After(50 * time.Millisecond):
	}
	// New jobs are rejected while draining.
	if _, err := pool.Enter(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Enter during drain: err = %v, want ErrClosed", err)
	}
	close(release)
	done.Wait()
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown after drain: %v", err)
	}
	if finished.Load() != jobs {
		t.Fatalf("only %d of %d jobs finished before shutdown returned", finished.Load(), jobs)
	}

	// Double shutdown errors; post-shutdown For degrades to inline.
	if err := pool.Shutdown(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Shutdown: err = %v, want ErrClosed", err)
	}
	sum := 0
	pool.For(1000, 10, func(w, lo, hi int) {
		if w != 0 {
			t.Errorf("post-shutdown For used worker %d", w)
		}
		sum += hi - lo
	})
	if sum != 1000 {
		t.Fatalf("post-shutdown inline For covered %d of 1000", sum)
	}
	st := pool.Stats()
	if st.JobsAdmitted != jobs || st.JobsRejected == 0 {
		t.Fatalf("stats after shutdown: %+v", st)
	}
}

// TestShutdownExpires checks the force-stop path: an expired ctx makes
// Shutdown return immediately with the ctx error while a janitor
// finishes the drain in the background.
func TestShutdownExpires(t *testing.T) {
	pool := NewPool(2)
	exit, err := pool.Enter()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := pool.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown with held job: err = %v, want DeadlineExceeded", err)
	}
	exit() // release the job; the janitor terminates the pool
	deadline := time.Now().Add(5 * time.Second)
	for pool.state.Load() != stateTerminated {
		if time.Now().After(deadline) {
			t.Fatal("janitor never terminated the pool")
		}
		time.Sleep(time.Millisecond)
	}
	// Post-termination submission still works (inline).
	sum := 0
	pool.For(100, 10, func(_, lo, hi int) { sum += hi - lo })
	if sum != 100 {
		t.Fatalf("post-termination For covered %d of 100", sum)
	}
}

// TestGroupGoCtx checks ctx-aware admission and the canceled-jobs stat.
func TestGroupGoCtx(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	g := pool.NewGroup(1)

	// A canceled ctx is refused at admission.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := g.GoCtx(ctx, func(context.Context, *Pool) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("GoCtx on canceled ctx: err = %v", err)
	}

	// A job that honors cancellation reports the ctx error via Wait and
	// bumps the canceled counter.
	ctx2, cancel2 := context.WithCancel(context.Background())
	if err := g.GoCtx(ctx2, func(ctx context.Context, p *Pool) error {
		cancel2()
		<-ctx.Done()
		return ctx.Err()
	}); err != nil {
		t.Fatalf("GoCtx: %v", err)
	}
	if err := g.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait: err = %v, want Canceled", err)
	}
	if c := pool.Stats().JobsCanceled; c != 1 {
		t.Fatalf("JobsCanceled = %d, want 1", c)
	}
}

// TestGroupRejectedAfterShutdown checks that Group jobs submitted after
// pool shutdown fail with ErrClosed instead of running.
func TestGroupRejectedAfterShutdown(t *testing.T) {
	pool := NewPool(2)
	g := pool.NewGroup(0)
	if err := pool.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ran := false
	g.Go(func(*Pool) error { ran = true; return nil })
	if err := g.Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Wait after post-shutdown Go: err = %v, want ErrClosed", err)
	}
	if ran {
		t.Fatal("post-shutdown job ran")
	}
}

// TestStatsUnderLoad drives concurrent jobs and checks the counters
// move: admissions equal submissions, and helpers were observed busy or
// batches queued at least once during the run. The jobs keep loading
// the pool until the sampler has seen activity (or a 10 s deadline
// passes), so a fast machine cannot finish the work between samples.
func TestStatsUnderLoad(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	g := pool.NewGroup(0)
	const jobs = 6
	stop := make(chan struct{})
	for j := 0; j < jobs; j++ {
		g.Go(func(p *Pool) error {
			for {
				select {
				case <-stop:
					return nil
				default:
				}
				p.For(1<<14, 256, func(_, lo, hi int) {
					s := 0
					for i := lo; i < hi; i++ {
						s += i
					}
					_ = s
				})
			}
		})
	}
	sawActivity := false
	for deadline := time.Now().Add(10 * time.Second); !sawActivity && time.Now().Before(deadline); {
		st := pool.Stats()
		if st.BusyHelpers > 0 || st.QueueDepth > 0 {
			sawActivity = true
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(stop)
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	st := pool.Stats()
	if st.JobsAdmitted != jobs {
		t.Fatalf("JobsAdmitted = %d, want %d", st.JobsAdmitted, jobs)
	}
	if !sawActivity {
		t.Error("never observed busy helpers or queued batches under load")
	}
	if st.InFlight != 0 {
		t.Fatalf("InFlight = %d after Wait, want 0", st.InFlight)
	}
}
