package iblt

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/parallel"
	"repro/internal/rng"
)

// TestStrataInsertAllWithPool checks the parallel stratified insert is
// cell-for-cell identical to the serial one (XOR commutes) at every
// worker count: 50 000 keys fill private estimators on every extra
// worker, 1 000 keys (one chunk) are inserted in place.
func TestStrataInsertAllWithPool(t *testing.T) {
	gen := rng.New(5)
	keys := make([]uint64, 50000)
	for i := range keys {
		for keys[i] == 0 {
			keys[i] = gen.Uint64()
		}
	}
	for _, n := range []int{len(keys), 1000} {
		want := NewStrataEstimator(42)
		want.InsertAll(keys[:n])
		wb, err := want.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			pool := parallel.NewPool(workers)
			got := NewStrataEstimator(42)
			err := got.insertAllCtx(context.Background(), keys[:n], pool)
			pool.Close()
			if err != nil {
				t.Fatal(err)
			}
			gb, err := got.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !equalBytes(wb, gb) {
				t.Fatalf("keys=%d workers=%d: parallel strata insert diverges from serial", n, workers)
			}
		}
	}
}

func equalBytes(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestReconcileHeadroomClamped: an absurd headroom — e.g. lifted off a
// hostile wire request — must not scale the difference table with it.
// The clamp to MaxHeadroom plus the union-size cap on the estimate keep
// the allocation proportional to the keys supplied; without them this
// call would attempt a ~1e18-cell table (or wrap the float-to-int
// conversion and panic New). The reconciliation still succeeds.
func TestReconcileHeadroomClamped(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	gen := rng.New(11)
	keys := make([]uint64, 1000)
	for i := range keys {
		for keys[i] == 0 {
			keys[i] = gen.Uint64()
		}
	}
	for _, h := range []float64{1e18, math.Inf(1), math.NaN()} {
		onlyL, onlyR, _, err := ReconcileCtx(context.Background(), keys, keys[:900], 3, h, pool)
		if err != nil {
			t.Fatalf("headroom %v: %v", h, err)
		}
		if len(onlyL) != 100 || len(onlyR) != 0 {
			t.Fatalf("headroom %v: difference %d/%d, want 100/0", h, len(onlyL), len(onlyR))
		}
	}
}

// TestReconcileCtxCancel checks a reconciliation request is abandoned on
// a canceled context, and that DecodeParallelCtx/FrontierCtx surface the
// cancellation too.
func TestReconcileCtxCancel(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	gen := rng.New(8)
	keys := make([]uint64, 10000)
	for i := range keys {
		for keys[i] == 0 {
			keys[i] = gen.Uint64()
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := ReconcileCtx(ctx, keys, keys[:9000], 3, 1.5, pool); !errors.Is(err, context.Canceled) {
		t.Fatalf("ReconcileCtx(canceled): %v", err)
	}
	tb := New(15000, 3, 9)
	tb.InsertAll(keys)
	if _, err := tb.Clone().DecodeParallelCtx(ctx, pool); !errors.Is(err, context.Canceled) {
		t.Fatalf("DecodeParallelCtx(canceled): %v", err)
	}
	if _, err := tb.Clone().DecodeParallelFrontierCtx(ctx, pool); !errors.Is(err, context.Canceled) {
		t.Fatalf("DecodeParallelFrontierCtx(canceled): %v", err)
	}
	if err := tb.Clone().InsertAllCtx(ctx, keys, pool); !errors.Is(err, context.Canceled) {
		t.Fatalf("InsertAllCtx(canceled): %v", err)
	}
}
