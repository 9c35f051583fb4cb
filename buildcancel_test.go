package repro

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// buildBarrierCtx counts Err() calls and cancels after the nth — the
// internal/core/cancel_test.go pattern lifted to the facade. The build
// path checks ctx exactly once per barrier it crosses (job admission,
// each retry attempt, the key peel's entry and every subround
// barrier), so the call count measures structurally how far a canceled
// build ran: cancellation at call n must return without a single
// further check, i.e. within one peel subround of extra work.
type buildBarrierCtx struct {
	calls       atomic.Int64
	cancelAfter int64
}

func (c *buildBarrierCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *buildBarrierCtx) Done() <-chan struct{}       { return nil }
func (c *buildBarrierCtx) Value(any) any               { return nil }
func (c *buildBarrierCtx) Err() error {
	if c.calls.Add(1) > c.cancelAfter {
		return context.Canceled
	}
	return nil
}

// TestRuntimeBuildMPHFAbortsWithinOneRound asserts the ordered-peel
// build path gives Runtime.BuildMPHF per-round cancellation: a context
// canceled mid-peel stops the build at the very next round barrier —
// zero further Err() calls — where the old serial-peel path could only
// stop at a phase boundary (after finishing the whole peel).
func TestRuntimeBuildMPHFAbortsWithinOneRound(t *testing.T) {
	keys := testRuntimeKeys(200000, 9)
	rt := NewRuntime(RuntimeOptions{Workers: 2})
	defer rt.Shutdown(context.Background())

	// Reference run: count the barriers of an uncanceled build.
	full := &buildBarrierCtx{cancelAfter: 1 << 30}
	f, err := rt.BuildMPHF(full, keys, 42)
	if err != nil {
		t.Fatalf("reference build: %v", err)
	}
	if f.Keys() != len(keys) {
		t.Fatalf("reference build wrong size: %d", f.Keys())
	}
	total := full.calls.Load()
	if total < 8 {
		t.Fatalf("reference build crossed only %d barriers; too few peel rounds for the test", total)
	}

	// Cancel mid-peel: allow the admission check, the attempt check, the
	// peel entry check, and two round barriers; the build must return at
	// the next barrier without crossing another.
	const allow = 5
	cc := &buildBarrierCtx{cancelAfter: allow}
	if _, err := rt.BuildMPHF(cc, keys, 42); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled build: err = %v, want Canceled", err)
	}
	if got := cc.calls.Load(); got != allow+1 {
		t.Fatalf("build crossed %d barriers after cancellation (total Err() calls %d, want %d): more than one round of extra work",
			got-(allow+1), got, allow+1)
	}
	if s := rt.Stats(); s.JobsCanceled != 1 {
		t.Fatalf("JobsCanceled = %d, want 1", s.JobsCanceled)
	}
}
