package core

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hypergraph"
	"repro/internal/rng"
)

// barrierCtx is a context.Context that reports cancellation starting at
// its nth Err() call. The peelers check ctx exactly once per round (or
// subround) barrier, so the call count is a deterministic, scheduling-
// independent measure of how many barriers a peel crossed — which lets
// the tests assert "a canceled peel does less than one round of extra
// work" structurally instead of by timing.
type barrierCtx struct {
	calls       atomic.Int64
	cancelAfter int64
}

func (c *barrierCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *barrierCtx) Done() <-chan struct{}       { return nil }
func (c *barrierCtx) Value(any) any               { return nil }
func (c *barrierCtx) Err() error {
	if c.calls.Add(1) > c.cancelAfter {
		return context.Canceled
	}
	return nil
}

// TestPeelAbortsWithinOneRound is the acceptance test for prompt
// cancellation: on a 2^22-vertex instance, a context that cancels after
// a few rounds stops the peel at the very next barrier — zero further
// Err() calls, hence zero further rounds of work.
func TestPeelAbortsWithinOneRound(t *testing.T) {
	if testing.Short() {
		t.Skip("2^22-vertex instance; skipped in -short")
	}
	if raceEnabled {
		t.Skip("2^22-vertex instance too slow under the race detector; cancellation races are covered by TestSubtablesCtxCancel and the parallel-package tests")
	}
	n := 1 << 22
	m := n * 7 / 10
	g := hypergraph.Uniform(n, m, 3, rng.New(42))

	// Reference run: count the barriers of an uncanceled peel.
	full := &barrierCtx{cancelAfter: 1 << 30}
	res, err := ParallelCtx(full, g, 2, Options{})
	if err != nil || !res.Empty() {
		t.Fatalf("reference peel: err=%v empty=%v", err, err == nil && res.Empty())
	}
	totalBarriers := full.calls.Load()
	if totalBarriers < 5 {
		t.Fatalf("reference peel crossed only %d barriers; instance too easy for the test", totalBarriers)
	}

	// Canceled run: cancel after 3 barriers; the peel must return at the
	// 4th check (the first canceled one) without crossing another.
	const allow = 3
	cc := &barrierCtx{cancelAfter: allow}
	cres, err := ParallelCtx(cc, g, 2, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled peel: err = %v, want Canceled", err)
	}
	if cres != nil {
		t.Fatal("canceled peel returned a result")
	}
	if got := cc.calls.Load(); got != allow+1 {
		t.Fatalf("peel crossed %d barriers after cancellation (total Err() calls %d, want %d): more than one round of extra work",
			got-(allow+1), got, allow+1)
	}
}

// TestSubtablesCtxCancel exercises the subround-barrier checks of the
// subtable peeler.
func TestSubtablesCtxCancel(t *testing.T) {
	g := hypergraph.Partitioned(3*40000, 80000, 3, rng.New(7))
	// Uncanceled: matches the ctx-free entry point.
	if _, err := SubtablesCtx(context.Background(), g, 2, Options{}); err != nil {
		t.Fatalf("SubtablesCtx(Background): %v", err)
	}
	// Canceled after 2 subround barriers: stops at the 3rd check.
	cc := &barrierCtx{cancelAfter: 2}
	if _, err := SubtablesCtx(cc, g, 2, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SubtablesCtx(canceled): err = %v, want Canceled", err)
	}
	if got := cc.calls.Load(); got != 3 {
		t.Fatalf("%d Err() calls after cancellation, want exactly 3", got)
	}
}

// TestParallelOrderCtxCancel exercises the round-barrier checks of the
// ordered peel: a context canceled after N barriers stops the peel at
// the very next check, with zero further rounds of work.
func TestParallelOrderCtxCancel(t *testing.T) {
	g := hypergraph.Uniform(120000, 84000, 3, rng.New(8))
	// Uncanceled: matches the ctx-free entry point and counts barriers.
	full := &barrierCtx{cancelAfter: 1 << 30}
	res, err := ParallelOrderCtx(full, g, 2, Options{})
	if err != nil || !res.Empty() {
		t.Fatalf("reference ordered peel: err=%v", err)
	}
	if full.calls.Load() < 5 {
		t.Fatalf("reference crossed only %d barriers; instance too easy", full.calls.Load())
	}
	cc := &barrierCtx{cancelAfter: 3}
	cres, err := ParallelOrderCtx(cc, g, 2, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled ordered peel: err = %v, want Canceled", err)
	}
	if cres != nil {
		t.Fatal("canceled ordered peel returned a result")
	}
	if got := cc.calls.Load(); got != 4 {
		t.Fatalf("%d Err() calls after cancellation, want exactly 4", got)
	}
}

// TestParallelCtxMatchesParallel checks the ctx path is a pure wrapper:
// same rounds, history, and core as the ctx-free peeler.
func TestParallelCtxMatchesParallel(t *testing.T) {
	g := hypergraph.Uniform(60000, 42000, 3, rng.New(11))
	want := Parallel(g, 2, Options{})
	got, err := ParallelCtx(context.Background(), g, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Rounds != want.Rounds || got.CoreVertices != want.CoreVertices || got.CoreEdges != want.CoreEdges {
		t.Fatalf("ParallelCtx diverged: got rounds=%d core=(%d,%d), want rounds=%d core=(%d,%d)",
			got.Rounds, got.CoreVertices, got.CoreEdges, want.Rounds, want.CoreVertices, want.CoreEdges)
	}
}

// TestEveryPeelCancels extends the barrier count to every core peel and
// both scan policies: a pre-canceled peel returns before it allocates,
// and a peel canceled after N barriers returns at the very next check.
func TestEveryPeelCancels(t *testing.T) {
	g := hypergraph.Uniform(30000, 21000, 3, rng.New(12))
	gp := hypergraph.Partitioned(3*10000, 21000, 3, rng.New(13))
	for _, scan := range []ScanPolicy{Frontier, FullScan} {
		opts := Options{Scan: scan}
		for _, tc := range []struct {
			name string
			run  func(ctx context.Context) (any, error)
		}{
			{"Parallel", func(ctx context.Context) (any, error) { return ParallelCtx(ctx, g, 2, opts) }},
			{"ParallelOrder", func(ctx context.Context) (any, error) { return ParallelOrderCtx(ctx, g, 2, opts) }},
			{"Subtables", func(ctx context.Context) (any, error) { return SubtablesCtx(ctx, gp, 2, opts) }},
		} {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := tc.run(ctx); !errors.Is(err, context.Canceled) {
					t.Fatalf("%s scan %d (canceled): err = %v", tc.name, scan, err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s scan %d: canceled peel allocated %v times", tc.name, scan, allocs)
			}

			full := &barrierCtx{cancelAfter: 1 << 30}
			if _, err := tc.run(full); err != nil {
				t.Fatal(err)
			}
			total := full.calls.Load()
			for _, allow := range []int64{1, total / 2, total - 1} {
				cc := &barrierCtx{cancelAfter: allow}
				res, err := tc.run(cc)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%s scan %d canceled after %d of %d: err = %v", tc.name, scan, allow, total, err)
				}
				if got := cc.calls.Load(); got != allow+1 {
					t.Errorf("%s scan %d canceled after %d: %d Err() calls, want %d", tc.name, scan, allow, got, allow+1)
				}
				if !reflect.ValueOf(res).IsNil() {
					t.Errorf("%s scan %d: canceled peel returned a result", tc.name, scan)
				}
			}
		}
	}
}
