package iblt

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/parallel"
)

// TestDecodeWarmAllocs bounds what a warm Frontier decode allocates at
// the server's decode geometry, 2^17 keys at load 0.75: the recovered
// keys' one buffer, sized from Cells() (1.9 MB), the kernel's identity
// list (0.7 MB) and pending bits (22 KB), and the workers' recovery
// shards. The result never regrows; before it was presized, a decode
// allocated 6.4 MB. Each figure is the least of 5 decodes, on pools of 1
// and 2 workers; the table each decode consumes is cloned outside the
// measurement.
func TestDecodeWarmAllocs(t *testing.T) {
	keys := randomKeys(1<<17, 1)
	master := New(len(keys)*4/3, 3, 1)
	master.InsertAll(keys)
	for _, workers := range []int{1, 2} {
		pool := parallel.NewPool(workers)
		decode := func(tbl *Table) {
			res, err := tbl.DecodeParallelFrontierCtx(context.Background(), pool)
			if err != nil || !res.Complete || len(res.Added) != len(keys) {
				t.Fatalf("W=%d: decode failed (err %v)", workers, err)
			}
		}
		decode(master.Clone())
		least := ^uint64(0)
		for range 5 {
			tbl := master.Clone()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			decode(tbl)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		pool.Close()
		if least > 3584<<10 {
			t.Errorf("W=%d: warm 2^17-key decode allocated %d bytes, want ≤ 3.5 MB", workers, least)
		}
	}
}

// TestPendingBitsAtPartEdges decodes tables whose subtables are 1, 63,
// 64, 65 and 127 cells long, so that a subtable's pending bits end
// inside a word, at its end, or one or 63 cells past it. Each subtable's
// bits start at a word of their own, so the owners of two subtables,
// which test and set them with plain loads and stores, never share a
// word: run with -race, the test catches a layout that lets them. The
// Frontier decoder must agree with FullScan and the serial decoder on
// every pool size, and stay within its work bound, which a lost or
// stray pending bit would break by listing a cell twice.
func TestPendingBitsAtPartEdges(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{1, 2, 3, 8} {
		pool := parallel.NewPool(workers)
		for _, subSize := range []int{1, 63, 64, 65, 127} {
			for _, load := range []float64{0.5, 0.8} {
				for seed := uint64(1); seed <= 4; seed++ {
					tbl := New(3*subSize, 3, seed)
					keys := randomKeys(max(1, int(load*float64(tbl.Cells()))), seed+uint64(subSize))
					// Every third key is deleted, so both signs are recovered.
					for i, x := range keys {
						if i%3 == 0 {
							tbl.Delete(x)
						} else {
							tbl.Insert(x)
						}
					}
					added, removed, ok := tbl.Clone().Decode()
					full, err := tbl.Clone().DecodeParallelCtx(ctx, pool)
					if err != nil {
						t.Fatal(err)
					}
					front, err := tbl.Clone().DecodeParallelFrontierCtx(ctx, pool)
					if err != nil {
						t.Fatal(err)
					}
					for name, res := range map[string]*ParallelResult{"FullScan": full, "Frontier": front} {
						if res.Complete != ok || !equalSets(res.Added, added) || !equalSets(res.Removed, removed) {
							t.Errorf("W=%d subtable %d load %v seed %d %s: %d added, %d removed (complete %v); serial %d, %d (%v)",
								workers, subSize, load, seed, name, len(res.Added), len(res.Removed), res.Complete,
								len(added), len(removed), ok)
						}
					}
					if front.Rounds != full.Rounds || front.Subrounds != full.Subrounds {
						t.Errorf("W=%d subtable %d load %v seed %d: Frontier rounds/subrounds %d/%d, FullScan %d/%d",
							workers, subSize, load, seed, front.Rounds, front.Subrounds, full.Rounds, full.Subrounds)
					}
					if bound := tbl.Cells() + (tbl.r-1)*len(keys); front.Candidates > bound {
						t.Errorf("W=%d subtable %d load %v seed %d: %d candidates, bound %d",
							workers, subSize, load, seed, front.Candidates, bound)
					}
				}
			}
		}
		pool.Close()
	}
}

// TestDecodeCraftedOvershoot forges ten keys, each pure at its own
// subtable-1 cell and absent from its other cells, so every decoder
// recovers about ten keys per subround, with alternating signs, until
// the cycle guard stops it. The last subround before the guard runs
// past Cells(): the result buffer must grow once, keep every key, and
// agree across decoders and pool sizes.
func TestDecodeCraftedOvershoot(t *testing.T) {
	tbl := New(96, 3, 5)
	for x := uint64(1); x <= 10; x++ {
		c := tbl.cellIndex(x, 1)
		if tbl.count[c] == 0 {
			tbl.count[c], tbl.keySum[c], tbl.checkSum[c] = 1, x, tbl.checksum(x)
		}
	}
	var want *ParallelResult
	for _, workers := range []int{1, 3} {
		pool := parallel.NewPool(workers)
		for _, dec := range []func(*Table, context.Context, *parallel.Pool) (*ParallelResult, error){
			(*Table).DecodeParallelCtx, (*Table).DecodeParallelFrontierCtx,
		} {
			res, err := dec(tbl.Clone(), context.Background(), pool)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(res.Added) + len(res.Removed); n <= tbl.Cells() || n >= tbl.Cells()+tbl.subSize {
				t.Errorf("W=%d: %d recoveries, want between Cells() = %d and one subtable more", workers, n, tbl.Cells())
			}
			if want == nil {
				want = res
			} else if !equalSets(res.Added, want.Added) || !equalSets(res.Removed, want.Removed) {
				t.Errorf("W=%d: %d added and %d removed, want %d and %d",
					workers, len(res.Added), len(res.Removed), len(want.Added), len(want.Removed))
			}
			for _, x := range append(res.Added, res.Removed...) {
				if x == 0 || x > 10 {
					t.Fatalf("W=%d: recovered key %d, not a forged one", workers, x)
				}
			}
		}
		pool.Close()
	}
}
