package core

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/parallel"
)

// chainPeel is a toy peel for the kernel: item order[i+1] becomes
// peelable once order[i] is peeled, and order[0] is peelable from the
// start, so the peel removes exactly one item per productive subround.
type chainPeel struct {
	kern *Kernel
	pool *parallel.Pool
	next []int32 // next[x]: the item x frees, or -1
	need []int32 // need[x] > 0 until x's predecessor is peeled
	dead []uint8
	seen []int32 // times each item was handed to the peel in one subround
}

func newChainPeel(kern *Kernel, order []int) *chainPeel {
	c := &chainPeel{
		kern: kern,
		pool: kern.Pool(),
		next: make([]int32, len(order)),
		need: make([]int32, len(order)),
		dead: make([]uint8, len(order)),
		seen: make([]int32, len(order)),
	}
	for i, x := range order {
		c.next[x] = -1
		if i+1 < len(order) {
			c.next[x] = int32(order[i+1])
		}
		if i > 0 {
			c.need[x] = 1
		}
	}
	return c
}

func (c *chainPeel) sel(cands, out []uint32) []uint32 {
	for _, x := range cands {
		if c.dead[x] == 0 && c.need[x] == 0 {
			c.dead[x] = 1
			out = append(out, x)
		}
	}
	return out
}

// peel removes items: with fused set, it also applies the predicate the
// select pass would (sound here because an item never frees an item of
// its own part).
func (c *chainPeel) peel(fused bool) func([]uint32) int {
	return func(items []uint32) int {
		var peeled atomic.Int64
		c.pool.For(len(items), 1, func(w, lo, hi int) {
			for _, x := range items[lo:hi] {
				if atomic.AddInt32(&c.seen[x], 1) > 1 {
					panic(fmt.Sprintf("item %d handed out twice in one subround", x))
				}
				if fused {
					if c.dead[x] != 0 || atomic.LoadInt32(&c.need[x]) > 0 {
						continue
					}
					c.dead[x] = 1
				}
				peeled.Add(1)
				if nx := c.next[x]; nx >= 0 && atomic.AddInt32(&c.need[nx], -1) == 0 {
					c.kern.Enlist(w, uint32(nx))
					c.kern.Enlist(w, uint32(nx)) // duplicates are suppressed
				}
			}
		})
		for _, x := range items {
			c.seen[x] = 0
		}
		return int(peeled.Load())
	}
}

// TestKernel runs the chain peel on 1 and 3 parts under both scan
// policies, where the round and subround counts are known exactly.
func TestKernel(t *testing.T) {
	pool := parallel.NewPool(3)
	defer pool.Close()
	ones := func(n int) []int {
		p := make([]int, n)
		for i := range p {
			p[i] = 1
		}
		return p
	}
	for _, tc := range []struct {
		name          string
		parts, size   int
		order         []int
		fused         bool
		maxRounds     int
		rounds, subs  int
		peeled        []int
		calls, unpeel int // ctx.Err() calls (entry check included); items left
	}{
		// One part: round t peels order[t-1]; round 6 is silent.
		{name: "1part", parts: 1, size: 5, order: []int{3, 0, 4, 1, 2},
			rounds: 5, subs: 5, peeled: ones(5), calls: 1 + 6},
		// The round cap stops the peel after round 3, with no silent round.
		{name: "1part/cap", parts: 1, size: 5, order: []int{3, 0, 4, 1, 2}, maxRounds: 3,
			rounds: 3, subs: 3, peeled: ones(3), calls: 1 + 3, unpeel: 2},
		// Three parts of two items (part = x/2), the chain visiting the
		// parts in subround order: one item per subround, two rounds.
		{name: "3parts/roundrobin", parts: 3, size: 2, order: []int{0, 2, 4, 1, 3, 5}, fused: true,
			rounds: 2, subs: 6, peeled: ones(6), calls: 1 + 3*3},
		// A chain stepping back a part every other item (p0→p2→p1→p0…):
		// a backward step waits for the next round, so rounds alternate
		// between two productive subrounds and one.
		{name: "3parts/backsteps", parts: 3, size: 2, order: []int{0, 4, 2, 1, 5, 3}, fused: true,
			rounds: 4, subs: 11,
			peeled: []int{1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0},
			calls:  1 + 5*3},
		// Three parts with a select pass instead of the fused predicate.
		{name: "3parts/select", parts: 3, size: 2, order: []int{0, 2, 4, 1, 3, 5},
			rounds: 2, subs: 6, peeled: ones(6), calls: 1 + 3*3},
	} {
		for _, scan := range []ScanPolicy{Frontier, FullScan} {
			t.Run(fmt.Sprintf("%s/scan%d", tc.name, scan), func(t *testing.T) {
				ctx := &barrierCtx{cancelAfter: 1 << 30}
				opts := Options{Scan: scan, MaxRounds: tc.maxRounds, Pool: pool}
				kern, err := NewKernel(ctx, opts, tc.parts, tc.size, nil)
				if err != nil {
					t.Fatal(err)
				}
				c := newChainPeel(kern, tc.order)
				sel := c.sel
				if tc.fused {
					sel = nil
				}
				if err := kern.RunCtx(ctx, sel, c.peel(tc.fused)); err != nil {
					t.Fatal(err)
				}
				if kern.Rounds != tc.rounds || kern.Subrounds != tc.subs {
					t.Errorf("rounds/subrounds = %d/%d, want %d/%d", kern.Rounds, kern.Subrounds, tc.rounds, tc.subs)
				}
				if !slices.Equal(kern.Peeled, tc.peeled) {
					t.Errorf("Peeled = %v, want %v", kern.Peeled, tc.peeled)
				}
				if got := ctx.calls.Load(); got != int64(tc.calls) {
					t.Errorf("%d ctx.Err() calls, want %d", got, tc.calls)
				}
				left := 0
				for _, d := range c.dead {
					if d == 0 {
						left++
					}
				}
				if left != tc.unpeel {
					t.Errorf("%d items left, want %d", left, tc.unpeel)
				}
			})
		}
	}
}

// TestKernelCanceled checks the kernel's cancellation contract: a
// canceled context returns before anything is allocated, and a run
// canceled after N barriers returns at the next check.
func TestKernelCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := NewKernel(ctx, Options{}, 4, 1<<16, nil); err != context.Canceled {
			t.Fatalf("NewKernel(canceled) = %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("NewKernel(canceled) allocated %v times", allocs)
	}

	cc := &barrierCtx{cancelAfter: 4}
	kern, err := NewKernel(cc, Options{}, 3, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := newChainPeel(kern, []int{0, 4, 2, 1, 5, 3})
	if err := kern.RunCtx(cc, nil, c.peel(true)); err != context.Canceled {
		t.Fatalf("RunCtx = %v, want Canceled", err)
	}
	if got := cc.calls.Load(); got != 5 {
		t.Fatalf("%d ctx.Err() calls, want 5", got)
	}
}

// TestAppender checks the owners' listed-once append: Put lists only the
// items flagged listed, in order, within the room made or reserved for
// every item; Commit hands the list to the part's next subround (and
// discards it under FullScan); and Reserve refuses a kernel on the
// default seed, whose owners must check pending marks with Append.
func TestAppender(t *testing.T) {
	a := NewAppender(4)
	for x := uint32(4); x < 8; x++ {
		a = a.Put(x, x%2 == 1)
	}
	if got := a.List(); !slices.Equal(got, []uint32{5, 7}) {
		t.Fatalf("List = %v, want [5 7]", got)
	}

	for _, scan := range []ScanPolicy{Frontier, FullScan} {
		kern, err := NewKernel(context.Background(), Options{Scan: scan}, 2, 4, [][]uint32{{0}, a.List()})
		if err != nil {
			t.Fatal(err)
		}
		l := kern.Reserve(1, 2)
		l = l.Put(4, true)
		l = l.Put(6, false)
		kern.Commit(1, l)
		want := []uint32{5, 7, 4}
		if scan == FullScan {
			want = []uint32{4, 5, 6, 7}
		}
		if got := kern.take(1); !slices.Equal(got, want) {
			t.Errorf("scan %d: part 1's candidates %v, want %v", scan, got, want)
		}
	}

	kern, err := NewKernel(context.Background(), Options{}, 2, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Reserve on the default seed did not panic")
		}
	}()
	kern.Reserve(0, 1)
}
