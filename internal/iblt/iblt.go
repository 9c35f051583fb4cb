// Package iblt implements Invertible Bloom Lookup Tables (Goodrich &
// Mitzenmacher), the data structure whose recovery procedure motivates the
// parallel peeling analysis of Jiang, Mitzenmacher, and Thaler (SPAA 2014,
// Section 6).
//
// A table consists of r equal subtables; inserting a key XORs it (and a
// checksum) into one hashed cell per subtable and increments the cell
// counts. The table thereby defines a random r-uniform partitioned
// hypergraph: cells are vertices, keys are edges, and recovery — repeatedly
// extracting "pure" cells that hold exactly one key — is precisely peeling
// to the 2-core. Recovery succeeds in full iff the 2-core is empty, which
// holds w.h.p. while load = keys/cells stays below c*(2,r) (≈ 0.818 for
// r = 3, ≈ 0.772 for r = 4).
//
// Recovery mirrors the paper's serial CPU and parallel GPU
// implementations:
//
//   - Decode: queue-driven serial peeling, O(cells + keys·r).
//   - The parallel decoder: round-based peeling on the core round
//     kernel that iterates the r subtables serially within a round and
//     examines each subtable's cells in parallel. Because a key
//     occupies exactly one cell per subtable, no key can be recovered
//     twice in one subround — the paper's reason for the subtable
//     layout (Appendix B analyzes this variant's subround complexity).
//     A subround's scan zeroes each pure cell and logs its key; then
//     one owner per other subtable deletes the logged keys from its
//     cells. Every write is a plain one, with no atomics. It has two
//     scan policies: DecodeParallelCtx rescans
//     every cell of the subtable each subround (the paper's GPU
//     strategy), and DecodeParallelFrontierCtx examines only the cells
//     touched since their last examination. They recover the same keys.
//
// Subtract turns two tables into a difference table whose decode returns
// the symmetric difference of the encoded sets (set reconciliation,
// Eppstein et al.): keys only in this table come back with count +1, keys
// only in the other with count −1.
package iblt

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/parallel"
	"repro/internal/rng"
)

// cell fields are kept in separate arrays (structure-of-arrays) so the
// parallel scan streams each field and the bulk insert's atomic updates
// touch independent cache words.
type Table struct {
	r       int
	subSize int
	seed    uint64
	hseed   []uint64 // one hash seed per subtable
	cseed   uint64   // checksum seed

	count    []int64
	keySum   []uint64
	checkSum []uint64
}

// New returns an empty table with r subtables and at least cells cells in
// total (rounded up to a multiple of r). r must be in [2, 8] and cells
// positive; New panics otherwise. Two tables built with the same
// (cells, r, seed) are compatible for Subtract.
func New(cells, r int, seed uint64) *Table {
	if r < 2 || r > 8 {
		panic(fmt.Sprintf("iblt: r = %d outside [2, 8]", r))
	}
	if cells <= 0 {
		panic("iblt: non-positive cell count")
	}
	subSize := (cells + r - 1) / r
	t := &Table{
		r:        r,
		subSize:  subSize,
		seed:     seed,
		hseed:    make([]uint64, r),
		cseed:    rng.Mix64(seed ^ 0xc3a5c85c97cb3127),
		count:    make([]int64, subSize*r),
		keySum:   make([]uint64, subSize*r),
		checkSum: make([]uint64, subSize*r),
	}
	for j := 0; j < r; j++ {
		t.hseed[j] = rng.Mix64(seed + uint64(j)*0x9e3779b97f4a7c15)
	}
	return t
}

// Cells returns the total number of cells (r × subtable size).
func (t *Table) Cells() int { return t.subSize * t.r }

// R returns the number of subtables (hash functions).
func (t *Table) R() int { return t.r }

// Load returns the hypergraph edge density corresponding to holding keys
// keys: keys / Cells().
func (t *Table) Load(keys int) float64 { return float64(keys) / float64(t.Cells()) }

// cellIndex returns the cell of key x in subtable j, using multiply-shift
// range reduction of the top hash bits (no modulo bias for subtable sizes
// far below 2^32, which covers the paper's 2^24-cell tables).
func (t *Table) cellIndex(x uint64, j int) int {
	h := rng.Mix64(x ^ t.hseed[j])
	return j*t.subSize + int((h>>32)*uint64(t.subSize)>>32)
}

// checksum returns the per-key checksum mixed with an independent seed.
func (t *Table) checksum(x uint64) uint64 { return rng.Mix64(x ^ t.cseed) }

// checkKey panics if x is the zero key, which XOR accounting cannot
// represent.
func (t *Table) checkKey(x uint64) {
	if x == 0 {
		panic("iblt: zero key is not representable (XOR identity)")
	}
}

// Insert adds key x to the table. Keys must be nonzero and distinct; a key
// inserted twice is unrecoverable (its cells never become pure), exactly
// like a duplicated hyperedge in the peeling analysis.
func (t *Table) Insert(x uint64) { t.checkKey(x); t.apply(x, 1) }

// Delete removes key x (inserting and deleting are symmetric XOR
// operations, so deleting an absent key records a negative-count entry,
// which Subtract/set-reconciliation decoding relies on).
func (t *Table) Delete(x uint64) { t.checkKey(x); t.apply(x, -1) }

func (t *Table) apply(x uint64, delta int64) {
	cs := t.checksum(x)
	for j := 0; j < t.r; j++ {
		i := t.cellIndex(x, j)
		t.count[i] += delta
		t.keySum[i] ^= x
		t.checkSum[i] ^= cs
	}
}

// InsertAll inserts keys in parallel on the process-wide default pool.
// A table that is large for the batch at the pool's worker count W
// ((W−1) × cells > keys) runs the paper's insertion phase — one task
// per key, atomic XOR/add on the shared cells; any other table is filled
// through per-worker private copies merged at the barrier (see
// applyAllCtx). Both give the serial Insert result cell for cell.
//
// Concurrent bulk updates (InsertAll, InsertAllCtx, DeleteAll) of
// different tables
// are safe, also on one shared pool; overlapping bulk updates of one
// table are not. A zero key re-panics on the caller as a
// *parallel.PanicError and leaves the table holding an unspecified
// subset of keys.
func (t *Table) InsertAll(keys []uint64) { t.mustApplyAll(keys, 1, parallel.Default()) }

// DeleteAll deletes keys in parallel on the process-wide default pool,
// with InsertAll's paths and concurrency contract.
func (t *Table) DeleteAll(keys []uint64) { t.mustApplyAll(keys, -1, parallel.Default()) }

// InsertAllCtx is InsertAll on an explicit worker pool with cooperative
// cancellation (checked between batch chunks); a zero key returns a
// *parallel.PanicError instead of panicking. On a non-nil return the
// table holds an unspecified subset of keys and must be discarded —
// cancellation abandons the request, not just the insert pass.
func (t *Table) InsertAllCtx(ctx context.Context, keys []uint64, pool *parallel.Pool) error {
	return t.applyAllCtx(ctx, keys, 1, pool)
}

// mustApplyAll is applyAllCtx for the context-free forms, whose only
// possible error is a recovered *parallel.PanicError: it is re-raised on
// the caller, as Pool.For does.
func (t *Table) mustApplyAll(keys []uint64, delta int64, pool *parallel.Pool) {
	if err := t.applyAllCtx(context.Background(), keys, delta, pool); err != nil {
		panic(err)
	}
}

// applyAllCtx adds (delta = +1) or removes (delta = -1) every key on the
// pool: the one bulk-update kernel behind InsertAll, DeleteAll and
// InsertAllCtx. Go has no atomic XOR (parallel.XorUint64 is a CAS loop),
// and when the table has no more cells than the batch has keys, workers
// updating it atomically keep bouncing the same few cache lines between
// them. Such a table is filled contention-free instead: worker 0 writes
// t in place, every other worker ID that claims a chunk gets a zeroed
// private table of the same geometry, and the private tables are merged
// into t serially after the barrier. That path is taken while
// (W−1) × cells ≤ len(keys), which bounds both the merge work and the
// extra memory (24 B per merged cell) by the key count at any pool size
// W; at W = 1 it always runs, as plain in-place updates. Larger tables
// (e.g. the paper's Tables 3–4, load < 1, at W ≥ 2) keep the atomic
// path, where private copies would cost more to allocate and merge than
// the inserts themselves. XOR and add commute, so both paths give the
// serial result at every worker count.
func (t *Table) applyAllCtx(ctx context.Context, keys []uint64, delta int64, pool *parallel.Pool) error {
	if (pool.Workers()-1)*t.Cells() > len(keys) {
		return pool.ForCtx(ctx, len(keys), 1024, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				t.checkKey(keys[i])
				t.applyAtomic(keys[i], delta)
			}
		})
	}
	private := make([]*Table, pool.Workers())
	private[0] = t
	if err := pool.ForCtx(ctx, len(keys), 1024, func(w, lo, hi int) {
		if private[w] == nil {
			private[w] = t.emptyCopy()
		}
		dst := private[w]
		for i := lo; i < hi; i++ {
			dst.checkKey(keys[i])
			dst.apply(keys[i], delta)
		}
	}); err != nil {
		return err
	}
	for _, p := range private[1:] {
		if p != nil {
			t.addCells(p, 1)
		}
	}
	return nil
}

// applyAtomic adds (delta = +1) or removes (delta = -1) key x using
// atomic cell updates: the large-table path of the bulk updates. It is
// safe against concurrent applyAtomic calls on the same table, not
// against plain updates of it.
func (t *Table) applyAtomic(x uint64, delta int64) {
	cs := t.checksum(x)
	for j := 0; j < t.r; j++ {
		c := t.cellIndex(x, j)
		atomic.AddInt64(&t.count[c], delta)
		parallel.XorUint64(&t.keySum[c], x)
		parallel.XorUint64(&t.checkSum[c], cs)
	}
}

// emptyCopy returns a zeroed table with t's geometry and seeds. The hash
// seeds are shared: nothing writes them after New.
func (t *Table) emptyCopy() *Table {
	n := len(t.count)
	return &Table{
		r: t.r, subSize: t.subSize, seed: t.seed, cseed: t.cseed, hseed: t.hseed,
		count:    make([]int64, n),
		keySum:   make([]uint64, n),
		checkSum: make([]uint64, n),
	}
}

// addCells adds sign × other into t cell by cell (counts scaled by sign,
// sums XORed). other must share t's geometry.
func (t *Table) addCells(other *Table, sign int64) {
	for i := range t.count {
		t.count[i] += sign * other.count[i]
		t.keySum[i] ^= other.keySum[i]
		t.checkSum[i] ^= other.checkSum[i]
	}
}

// Clone returns a deep copy (decoding is destructive; clone first to keep
// the original).
func (t *Table) Clone() *Table {
	c := &Table{
		r: t.r, subSize: t.subSize, seed: t.seed, cseed: t.cseed,
		hseed:    append([]uint64(nil), t.hseed...),
		count:    append([]int64(nil), t.count...),
		keySum:   append([]uint64(nil), t.keySum...),
		checkSum: append([]uint64(nil), t.checkSum...),
	}
	return c
}

// Subtract replaces t with the cell-wise difference t − other. The two
// tables must share geometry and seed; Subtract panics if they do not.
// After subtraction, decoding yields the symmetric difference of the two
// encoded sets.
func (t *Table) Subtract(other *Table) {
	if t.r != other.r || t.subSize != other.subSize || t.seed != other.seed {
		panic("iblt: subtracting incompatible tables")
	}
	t.addCells(other, -1)
}

// pure reports whether cell i holds exactly one key, and returns that key
// and its sign (+1: surplus/inserted side, −1: deficit/deleted side). The
// key must also hash to cell i in i's subtable, so a crafted table cannot
// name a key whose deletion would write another cell of that subtable.
func (t *Table) pure(i int) (x uint64, sign int64, ok bool) {
	c := t.count[i]
	if c != 1 && c != -1 {
		return 0, 0, false
	}
	x = t.keySum[i]
	if x == 0 || t.checksum(x) != t.checkSum[i] || t.cellIndex(x, i/t.subSize) != i {
		return 0, 0, false
	}
	return x, c, true
}

// Decode peels the table serially. It returns the keys recovered with
// positive sign (added) and negative sign (removed), and ok = true iff
// the table decoded completely (all cells empty afterwards). Decoding is
// destructive; Clone first if the table is still needed. Partial results
// are returned even when ok = false — the recovered-percentage column of
// the paper's Tables 3-4 is len(added)/keys on failing loads.
//
// A recovery leaves its pure cell holding no key, and cells only lose
// keys, so a valid table recovers at most Cells() keys. A crafted one
// can cycle (one key, pure in one cell and absent from its others, is
// recovered with alternating signs forever), so Decode stops there.
func (t *Table) Decode() (added, removed []uint64, ok bool) {
	queue := make([]int, 0, 256)
	for i := range t.count {
		if _, _, isPure := t.pure(i); isPure {
			queue = append(queue, i)
		}
	}
	for head := 0; head < len(queue) && len(added)+len(removed) < len(t.count); head++ {
		i := queue[head]
		x, sign, isPure := t.pure(i)
		if !isPure {
			continue // became impure since enqueued (already drained)
		}
		if sign > 0 {
			added = append(added, x)
		} else {
			removed = append(removed, x)
		}
		cs := t.checksum(x)
		for j := 0; j < t.r; j++ {
			c := t.cellIndex(x, j)
			t.count[c] -= sign
			t.keySum[c] ^= x
			t.checkSum[c] ^= cs
			if _, _, p := t.pure(c); p {
				queue = append(queue, c)
			}
		}
	}
	return added, removed, t.empty()
}

// empty reports whether every cell is zeroed.
func (t *Table) empty() bool {
	for i := range t.count {
		if t.count[i] != 0 || t.keySum[i] != 0 || t.checkSum[i] != 0 {
			return false
		}
	}
	return true
}
