package erasure

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/parallel"
	"repro/internal/rng"
)

// TestDecodeRoundsMatchesSerial drives the round-synchronous parallel
// recovery peel against the serial queue peel across loss rates,
// including a heavy loss just below threshold where recovery (not
// subtraction) dominates, and an above-threshold failure where both must
// report the same recovered count.
func TestDecodeRoundsMatchesSerial(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		pool := parallel.NewPool(workers)
		decodeRoundsMatchesSerial(t, pool)
		pool.Close()
	}
}

func decodeRoundsMatchesSerial(t *testing.T, pool *parallel.Pool) {
	const cells = 6000
	code := NewCode(cells, 3, 77)
	gen := rng.New(123)
	data := make([]uint64, 20000)
	for i := range data {
		data[i] = gen.Uint64()
	}
	checks := code.Encode(data)

	for _, losses := range []int{1, cells / 10, cells / 2, int(0.8 * cells)} {
		gotP := append([]uint64(nil), data...)
		gotS := append([]uint64(nil), data...)
		presentP := make([]bool, len(data))
		presentS := make([]bool, len(data))
		for i := range presentP {
			presentP[i], presentS[i] = true, true
		}
		perm := rng.New(uint64(losses)).Perm(len(data))[:losses]
		for _, i := range perm {
			gotP[i], presentP[i] = 0, false
			gotS[i], presentS[i] = 0, false
		}
		errP := code.DecodeCtx(context.Background(), gotP, presentP, checks, pool)
		errS := code.Decode(gotS, presentS, checks)
		if (errP == nil) != (errS == nil) {
			t.Fatalf("W=%d losses=%d: parallel err=%v, serial err=%v", pool.Workers(), losses, errP, errS)
		}
		if errP != nil {
			continue
		}
		for i := range data {
			if gotP[i] != data[i] {
				t.Fatalf("W=%d losses=%d: parallel decode restored symbol %d wrong", pool.Workers(), losses, i)
			}
		}
	}

	// Above threshold: both decoders stall; same sentinel error.
	tooMany := int(0.95 * cells)
	got := append([]uint64(nil), data...)
	present := make([]bool, len(data))
	for i := range present {
		present[i] = true
	}
	for _, i := range rng.New(9).Perm(len(data))[:tooMany] {
		got[i], present[i] = 0, false
	}
	if err := code.DecodeCtx(context.Background(), got, present, checks, pool); !errors.Is(err, ErrDecodeFailed) {
		t.Fatalf("W=%d above-threshold parallel decode: err = %v, want ErrDecodeFailed", pool.Workers(), err)
	}
}

// TestDecodeCtxCancel checks cooperative cancellation of both erasure
// phases.
func TestDecodeCtxCancel(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	code := NewCode(2000, 3, 5)
	gen := rng.New(42)
	data := make([]uint64, 8000)
	for i := range data {
		data[i] = gen.Uint64()
	}
	checks := code.Encode(data)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := code.EncodeCtx(ctx, data, pool); !errors.Is(err, context.Canceled) {
		t.Fatalf("EncodeCtx(canceled): %v", err)
	}
	present := make([]bool, len(data))
	if err := code.DecodeCtx(ctx, data, present, checks, pool); !errors.Is(err, context.Canceled) {
		t.Fatalf("DecodeCtx(canceled): %v", err)
	}
}

// barrierCtx is a context.Context that reports cancellation starting at
// its nth Err() call. The recovery peel checks ctx exactly once per
// round barrier, so the call count measures how many barriers a decode
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

// TestDecodeRoundsCancels checks the recovery peel's cancellation: a
// pre-canceled peel returns before it allocates, and a decode canceled
// after N round barriers returns at the very next check.
func TestDecodeRoundsCancels(t *testing.T) {
	pool := parallel.NewPool(2)
	defer pool.Close()
	code := NewCode(3000, 3, 17)
	gen := rng.New(5)
	data := make([]uint64, 9000)
	for i := range data {
		data[i] = gen.Uint64()
	}
	checks := code.Encode(data)
	lost := rng.New(6).Perm(len(data))[:2000]
	run := func(ctx context.Context) error {
		got := append([]uint64(nil), data...)
		present := make([]bool, len(data))
		for i := range present {
			present[i] = true
		}
		for _, i := range lost {
			got[i], present[i] = 0, false
		}
		return code.DecodeCtx(ctx, got, present, checks, pool)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	work := make([]Cell, code.Cells())
	present := make([]bool, len(data))
	allocs := testing.AllocsPerRun(5, func() {
		if err := code.decodeRounds(ctx, work, data, present, 1, pool); !errors.Is(err, context.Canceled) {
			t.Fatalf("decodeRounds(canceled): err = %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("canceled recovery peel allocated %v times", allocs)
	}

	full := &barrierCtx{cancelAfter: 1 << 30}
	if err := run(full); err != nil {
		t.Fatalf("reference decode: %v", err)
	}
	total := full.calls.Load()
	for _, allow := range []int64{1, total / 2, total - 1} {
		cc := &barrierCtx{cancelAfter: allow}
		if err := run(cc); !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled after %d of %d: err = %v", allow, total, err)
		}
		if got := cc.calls.Load(); got != allow+1 {
			t.Errorf("canceled after %d: %d Err() calls, want %d", allow, got, allow+1)
		}
	}
}

// TestDecodeBarriersMatchAcrossPools checks that recovery is
// deterministic: below and above the threshold, DecodeCtx crosses the
// same number of barriers at every pool size, because every subround's
// recovered set is fixed at its barrier.
func TestDecodeBarriersMatchAcrossPools(t *testing.T) {
	const cells = 3000
	code := NewCode(cells, 3, 19)
	gen := rng.New(8)
	data := make([]uint64, 9000)
	for i := range data {
		data[i] = gen.Uint64()
	}
	checks := code.Encode(data)
	for _, frac := range []float64{0.3, 0.6, 0.78, 0.95} {
		lost := rng.New(uint64(100 * frac)).Perm(len(data))[:int(frac*cells)]
		want := int64(-1)
		for _, workers := range poolSizes {
			got := append([]uint64(nil), data...)
			present := make([]bool, len(data))
			for i := range present {
				present[i] = true
			}
			for _, i := range lost {
				got[i], present[i] = 0, false
			}
			pool := parallel.NewPool(workers)
			ctx := &barrierCtx{cancelAfter: 1 << 30}
			err := code.DecodeCtx(ctx, got, present, checks, pool)
			pool.Close()
			if err != nil && !errors.Is(err, ErrDecodeFailed) {
				t.Fatalf("loss %v W=%d: %v", frac, workers, err)
			}
			if want < 0 {
				want = ctx.calls.Load()
			} else if n := ctx.calls.Load(); n != want {
				t.Errorf("loss %v: W=%d crossed %d barriers, W=%d crossed %d", frac, workers, n, poolSizes[0], want)
			}
		}
	}
}

// TestRecoverRoundsListsOnce is recovery's work oracle. A cell's count
// only falls, and a cell is listed only when its count is 1, so the
// subround scans examine at most Cells() cells, below and above the
// threshold and at every pool size.
func TestRecoverRoundsListsOnce(t *testing.T) {
	const cells = 3000
	code := NewCode(cells, 3, 23)
	gen := rng.New(9)
	data := make([]uint64, 9000)
	for i := range data {
		data[i] = gen.Uint64()
	}
	checks := code.Encode(data)
	ctx := context.Background()
	for _, frac := range []float64{0.3, 0.78, 0.95} {
		lost := rng.New(uint64(200 * frac)).Perm(len(data))[:int(frac*cells)]
		for _, workers := range poolSizes {
			got := append([]uint64(nil), data...)
			present := make([]bool, len(data))
			for i := range present {
				present[i] = true
			}
			for _, i := range lost {
				got[i], present[i] = 0, false
			}
			pool := parallel.NewPool(workers)
			work := append([]Cell(nil), checks...)
			missing, err := code.applyAllCtx(ctx, work, got, present, -1, pool)
			if err != nil {
				t.Fatal(err)
			}
			n, err := code.recoverRounds(ctx, work, got, present, missing, pool)
			pool.Close()
			if err != nil && !errors.Is(err, ErrDecodeFailed) {
				t.Fatalf("loss %v W=%d: %v", frac, workers, err)
			}
			if n > cells {
				t.Errorf("loss %v W=%d: scans examined %d cells, more than the %d there are", frac, workers, n, cells)
			}
		}
	}
}

// TestConcurrentDecodeRounds runs several parallel decodes of one code
// on a shared pool — the per-job state contract, meaningful under -race.
func TestConcurrentDecodeRounds(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	code := NewCode(3000, 3, 13)
	gen := rng.New(7)
	data := make([]uint64, 9000)
	for i := range data {
		data[i] = gen.Uint64()
	}
	checks := code.Encode(data)
	g := pool.NewGroup(0)
	for j := 0; j < 6; j++ {
		jobGen := rng.New(uint64(1000 + j))
		g.Go(func(p *parallel.Pool) error {
			got := append([]uint64(nil), data...)
			present := make([]bool, len(data))
			for i := range present {
				present[i] = true
			}
			for _, i := range jobGen.Perm(len(data))[:1200] {
				got[i], present[i] = 0, false
			}
			if err := code.DecodeCtx(context.Background(), got, present, checks, p); err != nil {
				return err
			}
			for i := range data {
				if got[i] != data[i] {
					return errors.New("concurrent decode corrupted a symbol")
				}
			}
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
}
