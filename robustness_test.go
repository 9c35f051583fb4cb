package repro

import (
	"bytes"
	"context"
	"errors"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bloomier"
	"repro/internal/layout"
	"repro/internal/mphf"
	"repro/internal/parallel"
)

// The headline acceptance scenario: a job that panics mid-peel returns
// ErrJobPanicked with the panicking frame in its captured stack, the
// Runtime's pool stays healthy, and the same Runtime then completes a
// full BuildMPHF. Run with -race.
func TestRuntimePanickedJobIsIsolated(t *testing.T) {
	rt := NewRuntime(RuntimeOptions{Workers: 4})
	defer rt.Shutdown(context.Background())
	ctx := context.Background()

	wait, err := rt.Go(ctx, func(ctx context.Context, pool *WorkerPool) error {
		return pool.ForCtx(ctx, 10000, 64, func(_, lo, hi int) {
			if lo <= 5000 && 5000 < hi {
				panic("mid-peel corruption")
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	jerr := wait()
	if !errors.Is(jerr, ErrJobPanicked) {
		t.Fatalf("job error = %v, want ErrJobPanicked", jerr)
	}
	var pe *PanicError
	if !errors.As(jerr, &pe) {
		t.Fatalf("job error %T does not unwrap to *PanicError", jerr)
	}
	if pe.Value() != "mid-peel corruption" {
		t.Errorf("panic value = %v", pe.Value())
	}
	if !strings.Contains(string(pe.Stack()), "robustness_test.go") {
		t.Errorf("stack does not contain the panicking frame:\n%s", pe.Stack())
	}
	if got := rt.Stats().JobsPanicked; got != 1 {
		t.Errorf("JobsPanicked = %d, want 1", got)
	}

	// Same Runtime, same pool: a full build must succeed.
	keys := testRuntimeKeys(20000, 7)
	f, err := rt.BuildMPHF(ctx, keys, 42)
	if err != nil {
		t.Fatalf("BuildMPHF after panicked job: %v", err)
	}
	seen := make([]bool, len(keys))
	for _, k := range keys {
		i := f.Lookup(k)
		if i < 0 || i >= len(keys) || seen[i] {
			t.Fatal("MPHF built after panic is not perfect")
		}
		seen[i] = true
	}
}

// A panic thrown directly by the job function (not inside a barrier) is
// recovered at the job boundary.
func TestRuntimeJobBoundaryPanicRecovered(t *testing.T) {
	rt := NewRuntime(RuntimeOptions{Workers: 2})
	defer rt.Shutdown(context.Background())

	wait, err := rt.Go(context.Background(), func(ctx context.Context, pool *WorkerPool) error {
		panic(errors.New("job-level failure"))
	})
	if err != nil {
		t.Fatal(err)
	}
	jerr := wait()
	if !errors.Is(jerr, ErrJobPanicked) {
		t.Fatalf("job error = %v, want ErrJobPanicked", jerr)
	}
	// panic(err) unwraps to the original error.
	if jerr.Error() != "parallel: job panicked: job-level failure" {
		t.Errorf("error text = %q", jerr.Error())
	}
}

// Concurrent poisoned and healthy jobs on one Runtime: the healthy ones
// finish, the poisoned ones report, and the Runtime serves 100
// subsequent jobs. Run with -race.
func TestRuntimeConcurrentPanicsDoNotWedge(t *testing.T) {
	rt := NewRuntime(RuntimeOptions{Workers: 4, MaxJobs: 8})
	defer rt.Shutdown(context.Background())
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make([]error, 10)
	for j := 0; j < 10; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			wait, err := rt.Go(ctx, func(ctx context.Context, pool *WorkerPool) error {
				return pool.ForCtx(ctx, 5000, 64, func(_, lo, hi int) {
					if j%2 == 0 && lo == 0 {
						panic("even jobs are poisoned")
					}
				})
			})
			if err != nil {
				errs[j] = err
				return
			}
			errs[j] = wait()
		}(j)
	}
	wg.Wait()
	for j, err := range errs {
		if j%2 == 0 && !errors.Is(err, ErrJobPanicked) {
			t.Errorf("poisoned job %d error = %v", j, err)
		}
		if j%2 == 1 && err != nil {
			t.Errorf("healthy job %d error = %v", j, err)
		}
	}
	if got := rt.Stats().JobsPanicked; got != 5 {
		t.Errorf("JobsPanicked = %d, want 5", got)
	}
	for i := 0; i < 100; i++ {
		wait, err := rt.Go(ctx, func(ctx context.Context, pool *WorkerPool) error {
			return pool.ForCtx(ctx, 100, 10, func(_, lo, hi int) {})
		})
		if err != nil {
			t.Fatalf("job %d after panics rejected: %v", i, err)
		}
		if err := wait(); err != nil {
			t.Fatalf("job %d after panics failed: %v", i, err)
		}
	}
}

func TestPolicyJobTimeout(t *testing.T) {
	rt := NewRuntime(RuntimeOptions{Workers: 2, Policy: Policy{JobTimeout: 20 * time.Millisecond}})
	defer rt.Shutdown(context.Background())

	wait, err := rt.Go(context.Background(), func(ctx context.Context, pool *WorkerPool) error {
		<-ctx.Done()
		return ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if jerr := wait(); !errors.Is(jerr, context.DeadlineExceeded) {
		t.Fatalf("job error = %v, want DeadlineExceeded from the policy timeout", jerr)
	}
	if got := rt.Stats().JobsCanceled; got != 1 {
		t.Errorf("JobsCanceled = %d, want 1", got)
	}
}

func TestPolicyCallerDeadlineWins(t *testing.T) {
	// An explicit caller deadline is respected even when later than the
	// policy default would have fired... and an earlier one fires first.
	rt := NewRuntime(RuntimeOptions{Workers: 2, Policy: Policy{JobTimeout: time.Hour}})
	defer rt.Shutdown(context.Background())

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	wait, err := rt.Go(ctx, func(ctx context.Context, pool *WorkerPool) error {
		<-ctx.Done()
		return ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if jerr := wait(); !errors.Is(jerr, context.DeadlineExceeded) {
		t.Fatalf("job error = %v, want the caller's earlier deadline", jerr)
	}
}

// TestPolicyDuplicateKeysNotRetried: a duplicated key fails both
// builders with ErrDuplicateKeys after one seed attempt, even under a
// Policy with BuildRetries > 0. A barrier-counting context shows it:
// Runtime.BuildMPHF / BuildStaticMap (a 10-seed ladder, retried by the
// policy) cross exactly as many barriers as a job running the builder
// with maxTries = 1 — no second attempt and no seed escalation.
func TestPolicyDuplicateKeysNotRetried(t *testing.T) {
	rt := NewRuntime(RuntimeOptions{Workers: 2, Policy: Policy{BuildRetries: 3}})
	defer rt.Shutdown(context.Background())

	keys := testRuntimeKeys(50000, 41)
	keys[len(keys)-1] = keys[0]
	values := append([]uint64(nil), keys...)

	cases := []struct {
		name    string
		runtime func(ctx context.Context) error
		once    func(ctx context.Context, pool *WorkerPool) error
	}{
		{"BuildMPHF",
			func(ctx context.Context) error { _, err := rt.BuildMPHF(ctx, keys, 42); return err },
			func(ctx context.Context, pool *WorkerPool) error {
				_, err := mphf.BuildCtx(ctx, keys, mphf.DefaultGamma, 42, 1, pool)
				return err
			}},
		{"BuildStaticMap",
			func(ctx context.Context) error { _, err := rt.BuildStaticMap(ctx, keys, values, 42); return err },
			func(ctx context.Context, pool *WorkerPool) error {
				_, err := bloomier.BuildCtx(ctx, keys, values, bloomier.DefaultGamma, 42, 1, pool)
				return err
			}},
	}
	for _, c := range cases {
		one := &buildBarrierCtx{cancelAfter: 1 << 30}
		wait, err := rt.Go(one, c.once)
		if err == nil {
			err = wait()
		}
		if !errors.Is(err, mphf.ErrDuplicateKeys) {
			t.Fatalf("%s, one attempt: err = %v, want ErrDuplicateKeys", c.name, err)
		}
		cc := &buildBarrierCtx{cancelAfter: 1 << 30}
		err = c.runtime(cc)
		if !errors.Is(err, mphf.ErrDuplicateKeys) || errors.Is(err, ErrMPHFBuildFailed) || errors.Is(err, ErrStaticMapBuildFailed) {
			t.Fatalf("%s under BuildRetries 3: err = %v, want ErrDuplicateKeys", c.name, err)
		}
		if got, want := cc.calls.Load(), one.calls.Load(); got != want {
			t.Errorf("%s under BuildRetries 3 crossed %d barriers, one attempt crosses %d: the build was retried", c.name, got, want)
		}
	}
}

func TestWithPolicySharesCore(t *testing.T) {
	rt := NewRuntime(RuntimeOptions{Workers: 2})
	derived := rt.WithPolicy(Policy{BuildRetries: 2})
	if derived.Policy().BuildRetries != 2 || rt.Policy().BuildRetries != 0 {
		t.Fatal("WithPolicy did not override / leaked the override")
	}
	// Jobs through either handle hit the same pool and counters.
	wait, err := derived.Go(context.Background(), func(ctx context.Context, pool *WorkerPool) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	if rt.Stats().JobsAdmitted == 0 {
		t.Error("job through derived handle not visible in base handle stats")
	}
	// Shutdown through the base closes the derived view too.
	if err := rt.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := derived.Go(context.Background(), func(ctx context.Context, pool *WorkerPool) error { return nil }); !errors.Is(err, ErrRuntimeClosed) {
		t.Errorf("derived handle after shutdown = %v, want ErrRuntimeClosed", err)
	}
}

// Shutdown with an expired context hands the drain to a janitor; once
// the last job finishes, the pool must actually be released and any
// error from that background release counted, not dropped.
func TestShutdownExpiredContextReleasesWorkers(t *testing.T) {
	rt := NewRuntime(RuntimeOptions{Workers: 4})
	release := make(chan struct{})
	started := make(chan struct{})
	wait, err := rt.Go(context.Background(), func(ctx context.Context, pool *WorkerPool) error {
		close(started)
		<-release
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired
	if err := rt.Shutdown(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Shutdown(expired) = %v, want context.Canceled", err)
	}
	close(release)
	if err := wait(); err != nil {
		t.Fatal(err)
	}

	// The janitor releases the pool; once it has, new For calls run
	// serially (pool terminated) and the helper goroutines are gone.
	// Poll the observable effect: a pool job submitted through a fresh
	// Enter is rejected.
	deadline := time.Now().Add(2 * time.Second)
	for {
		exit, perr := rt.Pool().Enter()
		if errors.Is(perr, parallel.ErrClosed) {
			break
		}
		if perr == nil {
			exit()
		}
		if time.Now().After(deadline) {
			t.Fatal("pool still accepting jobs after background drain")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := rt.Stats().ShutdownErrors; got != 0 {
		t.Errorf("ShutdownErrors = %d, want 0 for a clean background release", got)
	}
}

// If the pool was shut down underneath the Runtime, the background
// release fails and the failure must be counted in ShutdownErrors.
func TestShutdownBackgroundErrorCounted(t *testing.T) {
	rt := NewRuntime(RuntimeOptions{Workers: 2})
	release := make(chan struct{})
	started := make(chan struct{})
	wait, err := rt.Go(context.Background(), func(ctx context.Context, pool *WorkerPool) error {
		close(started)
		<-release
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := rt.Shutdown(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Shutdown(expired) = %v", err)
	}
	// Sabotage: shut the pool down directly so the janitor's own
	// Shutdown returns ErrClosed.
	go rt.Pool().Shutdown(context.Background())
	time.Sleep(10 * time.Millisecond)
	close(release)
	if err := wait(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for rt.Stats().ShutdownErrors == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := rt.Stats().ShutdownErrors; got != 1 {
		t.Errorf("ShutdownErrors = %d, want 1 after sabotaged background release", got)
	}
}

// Corrupt-image quarantine, production build: a bad image never swaps
// in, the rejection is counted, and the previous generation serves on.
func TestSwapImageQuarantinesCorruptImage(t *testing.T) {
	rt := NewRuntime(RuntimeOptions{Workers: 2})
	defer rt.Shutdown(context.Background())
	ctx := context.Background()
	tbl := NewStaticTable()

	keys := testRuntimeKeys(5000, 3)
	values := make([]uint64, len(keys))
	for i, k := range keys {
		values[i] = k * 3
	}
	sm, err := rt.BuildStaticMap(ctx, keys, values, 9)
	if err != nil {
		t.Fatal(err)
	}
	img := append([]byte(nil), sm.Bytes()...)
	gen, err := rt.SwapImage(ctx, tbl, img, nil)
	if err != nil || gen != 1 {
		t.Fatalf("SwapImage(good) = gen %d, %v", gen, err)
	}

	// Corrupt a payload byte: the checksum must catch it.
	bad := append([]byte(nil), img...)
	bad[len(bad)/2] ^= 0x40
	if _, err := rt.SwapImage(ctx, tbl, bad, nil); !errors.Is(err, layout.ErrBadImage) {
		t.Fatalf("SwapImage(corrupt) = %v, want ErrBadImage", err)
	}
	// Truncated image.
	if _, err := tbl.SwapImage(img[:len(img)-8], nil); !errors.Is(err, layout.ErrBadImage) {
		t.Fatalf("SwapImage(truncated) = %v, want ErrBadImage", err)
	}

	count, last := tbl.SwapRejections()
	if count != 2 || last == nil {
		t.Errorf("SwapRejections = (%d, %v), want (2, non-nil)", count, last)
	}
	if tbl.Generation() != 1 {
		t.Errorf("generation after rejections = %d, want 1", tbl.Generation())
	}
	for _, k := range keys[:100] {
		if v, ok := tbl.Lookup(k); !ok || v != k*3 {
			t.Fatal("previous generation corrupted by a rejected swap")
		}
	}
}

// WriteFile output round-trips through SwapImage — the build-to-serve
// persistence path.
func TestWriteFileToSwapImage(t *testing.T) {
	rt := NewRuntime(RuntimeOptions{Workers: 2})
	defer rt.Shutdown(context.Background())
	ctx := context.Background()

	keys := testRuntimeKeys(2000, 11)
	f, err := rt.BuildMPHF(ctx, keys, 5)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/mphf.sfn"
	if err := layout.WriteFile(path, f.Bytes()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data := layout.Aligned(raw)
	tbl := NewStaticTable()
	if _, err := tbl.SwapImage(data, nil); err != nil {
		t.Fatal(err)
	}
	if v, ok := tbl.Lookup(keys[0]); !ok || v != uint64(f.Lookup(keys[0])) {
		t.Error("served lookup disagrees with the built function")
	}
	if !bytes.Equal(data, f.Bytes()) {
		t.Error("persisted image differs from built image")
	}
}
