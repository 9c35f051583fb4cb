package iblt

import (
	"context"
	"slices"

	"repro/internal/core"
	"repro/internal/parallel"
)

// ParallelResult reports a parallel decode. Added and Removed share one
// buffer (see recoveryShards) and are capacity-capped, so appending to
// one never writes into the other.
type ParallelResult struct {
	Added    []uint64
	Removed  []uint64
	Rounds   int  // full rounds executed that recovered at least one key
	Complete bool // table fully decoded

	// Subrounds is the index of the last productive subround, counted
	// across rounds (r per round): the subround that recovered the last
	// key. The silent subrounds after it are not counted.
	//
	// recurrence.PredictSubrounds counts something else: the subrounds
	// until the expected number of surviving cells, summed over all r
	// subtables, falls below 1/2. The recurrence refreshes a subtable's
	// survivors only at that subtable's own subround, so its sum still
	// holds the other r−1 subtables' counts from before their last turn,
	// while the decoder has already deleted the recovered keys from
	// those cells. The sum thus falls below 1/2 only r−1 subrounds after
	// the freshest subtable's expected survivors do, and one more when
	// it ends just above 1/2 (0.54 at load 0.75). So at r = 3 the
	// decoder reads 2–4 below the prediction, never above.
	Subrounds int

	// Candidates is the number of cells the subround scans examined,
	// summed over every subround run: at most Cells() + r·keys under
	// Frontier, and subtable size × subrounds run under FullScan.
	Candidates int
}

// DecodeParallel is DecodeParallelCtx on the process-wide default pool.
func (t *Table) DecodeParallel() *ParallelResult {
	res, _ := t.DecodeParallelCtx(context.Background(), parallel.Default())
	return res
}

// DecodeParallelCtx peels the table with the paper's GPU recovery
// algorithm: the parallel decoder under the FullScan policy, where every
// subround scans its whole subtable — one thread per cell.
func (t *Table) DecodeParallelCtx(ctx context.Context, pool *parallel.Pool) (*ParallelResult, error) {
	return t.decodeCtx(ctx, core.FullScan, pool)
}

// DecodeParallelFrontier is DecodeParallelFrontierCtx on the
// process-wide default pool.
func (t *Table) DecodeParallelFrontier() *ParallelResult {
	res, _ := t.DecodeParallelFrontierCtx(context.Background(), parallel.Default())
	return res
}

// DecodeParallelFrontierCtx is the work-efficient parallel decoder, under
// the Frontier policy: after one scan of the table, a subround examines
// only the cells touched by a deletion since they were last examined.
// Total work becomes proportional to table size plus peeling work, like
// the serial decoder. This is an engineering extension beyond the paper,
// the runtime's and the server's decoder.
func (t *Table) DecodeParallelFrontierCtx(ctx context.Context, pool *parallel.Pool) (*ParallelResult, error) {
	return t.decodeCtx(ctx, core.Frontier, pool)
}

// recoveryShards holds the per-worker result buffers one decode job owns
// and reuses across subrounds: worker w appends recovered keys only to
// index w (the pool serializes same-ID chunks within a call), and the
// subround barrier drains every shard — no mutex in the scan, and no
// allocation after the first subround. The buffers belong to the decode
// call, so concurrent decode jobs sharing one pool never collide.
//
// The shards drain into keys, the one buffer that holds every recovered
// key: added keys from its front, removed keys from its back, last
// first. It is sized to Cells(), as a valid table recovers at most
// Cells() keys, and a valid table's decode never regrows it. A crafted
// table that cycles can overshoot by less than one subtable, since the
// cycle guard runs before each subround and a subround recovers at most
// one key per cell of its subtable; its last drain grows keys once.
type recoveryShards struct {
	added   [][]uint64
	removed [][]uint64

	keys             []uint64
	nadded, nremoved int
}

func newRecoveryShards(workers, keys int) *recoveryShards {
	return &recoveryShards{
		added:   make([][]uint64, workers),
		removed: make([][]uint64, workers),
		keys:    make([]uint64, keys),
	}
}

// recovered returns the number of keys drained so far.
func (s *recoveryShards) recovered() int { return s.nadded + s.nremoved }

// drain moves every shard into keys, returning the number of keys
// recovered since the last drain, and resets the shards (keeping
// capacity).
func (s *recoveryShards) drain() int {
	got := 0
	for w := range s.added {
		got += len(s.added[w]) + len(s.removed[w])
	}
	if n := s.recovered() + got; n > len(s.keys) {
		keys := make([]uint64, n)
		copy(keys, s.keys[:s.nadded])
		copy(keys[n-s.nremoved:], s.keys[len(s.keys)-s.nremoved:])
		s.keys = keys
	}
	for w := range s.added {
		s.nadded += copy(s.keys[s.nadded:], s.added[w])
		for _, x := range s.removed[w] {
			s.nremoved++
			s.keys[len(s.keys)-s.nremoved] = x
		}
		s.added[w] = s.added[w][:0]
		s.removed[w] = s.removed[w][:0]
	}
	return got
}

// result sets res.Added and res.Removed to their parts of keys, each in
// recovery order.
func (s *recoveryShards) result(res *ParallelResult) {
	res.Added = s.keys[:s.nadded:s.nadded]
	res.Removed = s.keys[len(s.keys)-s.nremoved:]
	slices.Reverse(res.Removed)
}

// decodeCtx is the parallel decoder: the subround peel of Appendix B on
// the core round kernel, with the table's cells as items and its r
// subtables as parts. A key occupies exactly one cell of subtable j, so
// it is recovered at most once per subround — the paper's reason for the
// subtable layout — and subround j writes no subtable-j cell but the
// recovered one: no select pass is needed, and every subround's
// recovered set is fixed at its barrier.
//
// Each subround runs the kernel's two phases with plain writes only. The
// scan examines subtable j's candidates in parallel, zeroes each pure
// cell in place (it held exactly its key) and logs the key in its
// worker's recovery shard. The owner pass then gives each other
// subtable p one worker, which deletes every logged key from its
// subtable-p cell and appends the cell to its subtable's list if its
// count is now ±1; the shards then drain into one result buffer sized
// up front (see recoveryShards), as the paper's GPU recovery writes its
// output. A deletion can move a count either way, so a cell can return
// to ±1 while listed: the decoder keeps the kernel's default seed, whose
// pending bits keep a listed cell from being listed again.
//
// A valid table releases each cell at most once, so, like Decode, the
// decoder stops once it has recovered Cells() keys: a crafted table can
// recover one key over and over.
//
// scan only changes the work profile: Frontier enlists every cell a
// deletion leaves at count ±1, and a cell can only turn pure through a
// deletion that leaves it there, so the recovered sets, completeness and
// round and subround counts are identical under both policies and at
// every pool size.
//
// All working state is owned by the call, so many decodes may run
// concurrently on one shared pool (e.g. as parallel.Group jobs). On
// cancellation, checked at every subround barrier, it returns
// (nil, ctx.Err()), and the partially decoded table must be discarded.
func (t *Table) decodeCtx(ctx context.Context, scan core.ScanPolicy, pool *parallel.Pool) (*ParallelResult, error) {
	kern, err := core.NewKernel(ctx, core.Options{Scan: scan, Pool: pool}, t.r, t.subSize, nil)
	if err != nil {
		return nil, err
	}
	shards := newRecoveryShards(pool.Workers(), t.Cells())
	err = kern.RunCtx(ctx, nil, func(cells []uint32) int {
		if shards.recovered() >= t.Cells() {
			return 0 // a crafted table that cycles; see Decode
		}
		pool.For(len(cells), 512, func(w, lo, hi int) {
			added, removed := shards.added[w], shards.removed[w]
			for _, cell := range cells[lo:hi] {
				i := int(cell)
				x, sign, isPure := t.pure(i)
				if !isPure {
					continue
				}
				t.count[i], t.keySum[i], t.checkSum[i] = 0, 0, 0
				if sign > 0 {
					added = append(added, x)
				} else {
					removed = append(removed, x)
				}
			}
			shards.added[w], shards.removed[w] = added, removed
		})
		kern.ForOtherParts(int(cells[0])/t.subSize, func(p int) {
			for s := range shards.added {
				for _, x := range shards.added[s] {
					if c, unit := t.remove(x, 1, p); unit {
						kern.Append(p, uint32(c))
					}
				}
				for _, x := range shards.removed[s] {
					if c, unit := t.remove(x, -1, p); unit {
						kern.Append(p, uint32(c))
					}
				}
			}
		})
		return shards.drain()
	})
	if err != nil {
		return nil, err
	}
	res := &ParallelResult{Rounds: kern.Rounds, Subrounds: kern.Subrounds, Candidates: kern.Candidates}
	shards.result(res)
	res.Complete = t.empty()
	return res, nil
}

// remove deletes key x, recovered with sign, from its subtable-p cell,
// and returns that cell and whether its count is now ±1, the only
// counts a pure cell has.
func (t *Table) remove(x uint64, sign int64, p int) (int, bool) {
	c := t.cellIndex(x, p)
	t.count[c] -= sign
	t.keySum[c] ^= x
	t.checkSum[c] ^= t.checksum(x)
	return c, t.count[c] == 1 || t.count[c] == -1
}
