package iblt

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/parallel"
)

// barrierCtx is a context.Context that reports cancellation starting at
// its nth Err() call. The decoders check ctx exactly once per subround
// barrier, so the call count measures how many barriers a decode
// crossed, independent of scheduling.
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

// TestDecodeCancels checks both scan policies of the parallel decoder: a
// pre-canceled decode returns before it allocates, and a decode canceled
// after N subround barriers returns at the very next check.
func TestDecodeCancels(t *testing.T) {
	pool := parallel.NewPool(2)
	defer pool.Close()
	master := New(6000, 3, 21)
	master.InsertAll(randomKeys(4500, 22))
	for name, decode := range map[string]func(*Table, context.Context) (*ParallelResult, error){
		"FullScan": func(t *Table, ctx context.Context) (*ParallelResult, error) { return t.DecodeParallelCtx(ctx, pool) },
		"Frontier": func(t *Table, ctx context.Context) (*ParallelResult, error) {
			return t.DecodeParallelFrontierCtx(ctx, pool)
		},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		table := master.Clone()
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := decode(table, ctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s (canceled): err = %v", name, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: canceled decode allocated %v times", name, allocs)
		}

		full := &barrierCtx{cancelAfter: 1 << 30}
		if res, err := decode(master.Clone(), full); err != nil || !res.Complete {
			t.Fatalf("%s reference decode: err = %v", name, err)
		}
		total := full.calls.Load()
		for _, allow := range []int64{1, total / 2, total - 1} {
			cc := &barrierCtx{cancelAfter: allow}
			res, err := decode(master.Clone(), cc)
			if !errors.Is(err, context.Canceled) || res != nil {
				t.Fatalf("%s canceled after %d of %d: res = %v, err = %v", name, allow, total, res, err)
			}
			if got := cc.calls.Load(); got != allow+1 {
				t.Errorf("%s canceled after %d: %d Err() calls, want %d", name, allow, got, allow+1)
			}
		}
	}
}
