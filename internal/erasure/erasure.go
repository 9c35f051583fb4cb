// Package erasure implements a Biff-style (Bloom-filter) erasure code
// (Mitzenmacher & Varghese), one of the peeling applications motivating
// Jiang, Mitzenmacher, and Thaler (SPAA 2014): each data symbol is XORed
// into r hashed check cells, so the erased symbols form the edges of a
// random r-uniform hypergraph over the check cells, and decoding is
// exactly peeling to the 2-core.
//
// Decoding succeeds with high probability as long as
//
//	(#erased symbols) < c*(2,r) × (#check cells),
//
// e.g. r = 3 tolerates losses up to ~0.818 × cells — the paper's
// below-threshold regime, where the parallel decoder also finishes in
// O(log log n) rounds.
//
// The check cells use the paper's Appendix B layout: r subtables of
// ⌊cells/r⌋ cells, and a symbol's j-th cell lies in subtable j. The
// hypergraph is therefore r-partite, and parallel recovery runs in
// subrounds, one per subtable, like the IBLT decoder. The cells mod r
// tail cells past the last subtable are never written.
package erasure

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// Cell is one check symbol: the XOR of the values of the data symbols
// hashed to it, a XOR of their (index+1) tags, a count, and a checksum
// that guards pure-cell detection after subtraction.
type Cell struct {
	IdxSum   uint64 // XOR of (index+1); +1 keeps index 0 representable
	ValueSum uint64 // XOR of symbol values
	CheckSum uint64 // XOR of per-symbol checksums
	Count    int32
}

// Code is a (cells, r, seed) configuration. Encoding and decoding must
// use identical configurations.
type Code struct {
	cells   int
	r       int
	subSize int // cells per subtable, ⌊cells/r⌋
	hseed   []uint64
	cseed   uint64
}

// NewCode returns a code with the given number of check cells and r hash
// positions per data symbol (r in [3, 8]; r = 2's threshold c*(2,2) is
// degenerate and excluded, as in the paper). Panics if r is outside
// [3, 8] or cells < r, which would leave a subtable empty — both are
// static configuration bugs, not runtime conditions.
func NewCode(cells, r int, seed uint64) *Code {
	if r < 3 || r > 8 {
		panic(fmt.Sprintf("erasure: r = %d outside [3, 8]", r))
	}
	if cells < r {
		panic(fmt.Sprintf("erasure: %d cells cannot hold %d subtables", cells, r))
	}
	c := &Code{
		cells:   cells,
		r:       r,
		subSize: cells / r,
		hseed:   make([]uint64, r),
		cseed:   rng.Mix64(seed ^ 0x5851f42d4c957f2d),
	}
	for j := 0; j < r; j++ {
		c.hseed[j] = rng.Mix64(seed + uint64(j)*0xbf58476d1ce4e5b9)
	}
	return c
}

// Cells returns the number of check cells.
func (c *Code) Cells() int { return c.cells }

// positions fills pos with the cells of symbol index i, pos[j] in
// subtable j, so the r cells are distinct.
func (c *Code) positions(i int, pos []int) {
	for j := range pos {
		pos[j] = c.position(i, j)
	}
}

// position returns the cell of symbol index i in subtable j.
func (c *Code) position(i, j int) int {
	h := rng.Mix64(uint64(i+1) ^ c.hseed[j])
	return j*c.subSize + int((h>>32)*uint64(c.subSize)>>32)
}

func (c *Code) checksum(i int) uint64 { return rng.Mix64(uint64(i+1) ^ c.cseed) }

// Encode returns the check cells for the data block. The check overhead
// is Cells()/len(data); tolerable loss is ~c*(2,r)·Cells() symbols.
func (c *Code) Encode(data []uint64) []Cell {
	checks := make([]Cell, c.cells)
	pos := make([]int, c.r)
	for i, v := range data {
		c.apply(checks, i, v, pos, 1)
	}
	return checks
}

// EncodeCtx is Encode with the per-symbol cell updates fanned out over
// an explicit worker pool — the erasure analog of the IBLT's parallel
// insertion phase, on private per-worker shards merged at the barrier
// (see applyAllCtx). The resulting check block is cell-for-cell
// identical to Encode's (XOR and add commute). All per-call state is
// owned by the call, so concurrent encodes may share one pool.
// Cancellation is cooperative (checked between batch chunks); on a
// non-nil return the check block is partially encoded and must be
// discarded.
func (c *Code) EncodeCtx(ctx context.Context, data []uint64, pool *parallel.Pool) ([]Cell, error) {
	checks := make([]Cell, c.cells)
	if _, err := c.applyAllCtx(ctx, checks, data, nil, 1, pool); err != nil {
		return nil, err
	}
	return checks, nil
}

// applyAllCtx adds (delta = +1) or subtracts (delta = -1) every symbol
// of data into cells on the pool, skipping the symbols whose present
// entry is false (present == nil skips none), and returns how many it
// skipped. It is the bulk-update kernel of EncodeCtx and of DecodeCtx's
// received-symbol pass. Atomic updates of the shared block would keep
// the workers' CAS-loop XORs contending on its cache lines, so the block
// is updated contention-free, as the IBLT bulk insert does: worker 0
// writes cells in place, every other worker ID that claims a 2 048-symbol
// chunk writes a zeroed private shard, and the shards are merged into
// cells after the barrier. Each extra chunk costs at most one
// Cells()-long shard and merge; a check block is a fraction of the data
// it protects (the overhead Cells()/len(data)), so that stays below the
// symbol updates themselves.
// The result is the serial one cell for cell (XOR and add commute).
func (c *Code) applyAllCtx(ctx context.Context, cells []Cell, data []uint64, present []bool, delta int32, pool *parallel.Pool) (int, error) {
	// Per-worker position buffers and shards: chunks with the same worker
	// ID never run concurrently within this call, and the buffers are
	// call-local, so concurrent jobs sharing the pool cannot collide.
	posBufs := make([][]int, pool.Workers())
	for w := range posBufs {
		posBufs[w] = make([]int, c.r)
	}
	shards := make([][]Cell, pool.Workers())
	shards[0] = cells
	skipped := pool.NewCounter()
	if err := pool.ForCtx(ctx, len(data), 2048, func(w, lo, hi int) {
		pos := posBufs[w]
		if shards[w] == nil {
			shards[w] = make([]Cell, c.cells)
		}
		for i := lo; i < hi; i++ {
			if present != nil && !present[i] {
				skipped.Add(w, 1)
				continue
			}
			c.apply(shards[w], i, data[i], pos, delta)
		}
	}); err != nil {
		return 0, err
	}
	for _, shard := range shards[1:] {
		for p := range shard {
			cells[p].Count += shard[p].Count
			cells[p].IdxSum ^= shard[p].IdxSum
			cells[p].ValueSum ^= shard[p].ValueSum
			cells[p].CheckSum ^= shard[p].CheckSum
		}
	}
	return int(skipped.Sum()), nil
}

// ErrDecodeFailed reports that peeling stalled — the erased symbols'
// hypergraph had a non-empty 2-core (loss rate above the threshold).
var ErrDecodeFailed = errors.New("erasure: peeling stalled; too many erasures")

// ErrShapeMismatch reports that a decode call's slices do not match the
// code's configuration: data and present differ in length, or the check
// block is not Cells() long.
var ErrShapeMismatch = errors.New("erasure: decode input shape mismatch")

// checkShape validates the decode inputs shared by Decode and DecodeCtx.
func (c *Code) checkShape(data []uint64, present []bool, checks []Cell) error {
	if len(data) != len(present) {
		return fmt.Errorf("%w: data/present length %d != %d", ErrShapeMismatch, len(data), len(present))
	}
	if len(checks) != c.cells {
		return fmt.Errorf("%w: check block length %d != %d cells", ErrShapeMismatch, len(checks), c.cells)
	}
	return nil
}

// Decode reconstructs the missing entries of data in place. present[i]
// reports whether data[i] survived the channel; checks is the full check
// block (assumed intact, as in the Biff code model). On success every
// entry of data is restored and present is all true. On failure
// ErrDecodeFailed is returned and any symbols recovered before the stall
// are filled in (present marks them). A forged check block cannot make
// it panic or fill in a symbol twice: a cell is recovered only if it
// names a missing symbol and is that symbol's cell in its subtable.
// Mis-shaped inputs (data/present length mismatch, or a check block that
// is not Cells() long) return an error wrapping ErrShapeMismatch.
func (c *Code) Decode(data []uint64, present []bool, checks []Cell) error {
	if err := c.checkShape(data, present, checks); err != nil {
		return err
	}
	// Subtract every received symbol; what remains is an IBLT of the
	// missing ones.
	work := make([]Cell, c.cells)
	copy(work, checks)
	pos := make([]int, c.r)
	missing := 0
	for i, v := range data {
		if !present[i] {
			missing++
			continue
		}
		c.apply(work, i, v, pos, -1)
	}
	if missing == 0 {
		return nil
	}
	return c.peel(work, data, present, missing)
}

// DecodeCtx is Decode with both phases on an explicit worker pool: the
// received-symbol subtraction pass (the O(data) part that dominates when
// few symbols are missing) fans out through applyAllCtx, and recovery
// runs the subround peel decodeRounds — the IBLT's subround decoder on
// the erasure cells — instead of the serial queue peel. Like the IBLT
// decoder it writes with plain stores only: each subround's scan logs
// its recoveries, and one owner per other subtable applies them.
// Results are identical to Decode (peeling is confluent), and every
// subround's recovered set, hence the barrier count, is the same at
// every pool size. All per-call state is owned by the call, so
// concurrent decodes may share one pool.
//
// Cancellation is cooperative, checked inside the subtraction pass and
// at every peeling round barrier. On cancellation it returns ctx.Err();
// data and present are then partially updated and must be treated as
// abandoned. Mis-shaped inputs return an error wrapping
// ErrShapeMismatch, as in Decode.
func (c *Code) DecodeCtx(ctx context.Context, data []uint64, present []bool, checks []Cell, pool *parallel.Pool) error {
	if err := c.checkShape(data, present, checks); err != nil {
		return err
	}
	work := make([]Cell, c.cells)
	copy(work, checks)
	missing, err := c.applyAllCtx(ctx, work, data, present, -1, pool)
	if err != nil {
		return err
	}
	if missing == 0 {
		return nil
	}
	return c.decodeRounds(ctx, work, data, present, missing, pool)
}

// decodeRounds recovers the missing symbols with the Appendix B
// subround peel on the pool: the core round kernel with the r
// subtables as its parts, under the Frontier policy. A symbol has
// exactly one cell in subtable j, so it is recovered at most once per
// subround, and subround j writes no subtable-j cell but the recovering
// one: subround j's reads see only earlier subrounds' writes, and each
// symbol's data and present slots have one writer. Each subround runs
// the kernel's two phases with plain writes only. The scan examines
// subtable j's candidate cells in parallel, recovers every pure cell's
// symbol, zeroes the cell and logs the symbol's index in its worker's
// log. The owner pass then gives each other subtable p one worker,
// which subtracts every logged symbol from its subtable-p cell and
// lists the cell on its subtable's list if its count is now 1, the only
// count a recoverable cell has.
//
// Recovery only subtracts, so a cell's count only falls, and a cell is
// listed when its count is 1: first if it starts there, later when a
// subtraction leaves it there. Each cell is thus listed at most once:
// the kernel keeps no pending marks, and the first lists and the
// owners' lists are filled with no branch per cell (core.Appender,
// Kernel.Reserve). Work is proportional to cells + peeling work, like
// the serial peel, and the round structure matches the paper's
// analysis (O(log log n) rounds below threshold).
func (c *Code) decodeRounds(ctx context.Context, work []Cell, data []uint64, present []bool, missing int, pool *parallel.Pool) error {
	_, err := c.recoverRounds(ctx, work, data, present, missing, pool)
	return err
}

// recoverRounds is decodeRounds; it also returns the number of cells
// the subround scans examined, at most r·subSize.
func (c *Code) recoverRounds(ctx context.Context, work []Cell, data []uint64, present []bool, missing int, pool *parallel.Pool) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	first := make([][]uint32, c.r)
	pool.RunRanges(c.r, c.r, func(j, _, _ int) {
		// One slot per count-1 cell, and one for the Puts after the last.
		part, n := work[j*c.subSize:(j+1)*c.subSize], 1
		for p := range part {
			if part[p].Count == 1 {
				n++
			}
		}
		cells := core.NewAppender(n)
		for p := range part {
			cells = cells.Put(uint32(j*c.subSize+p), part[p].Count == 1)
		}
		first[j] = cells.List()
	})
	kern, err := core.NewKernel(ctx, core.Options{Scan: core.Frontier, Pool: pool}, c.r, c.subSize, first)
	if err != nil {
		return 0, err
	}
	logs := make([][]int, pool.Workers())
	recovered := 0
	err = kern.RunCtx(ctx, nil, func(cells []uint32) int {
		pool.For(len(cells), 512, func(w, lo, hi int) {
			for _, p := range cells[lo:hi] {
				i, ok := c.symbolAt(work, int(p), present)
				if !ok {
					continue
				}
				data[i] = work[p].ValueSum
				present[i] = true
				work[p] = Cell{}
				logs[w] = append(logs[w], i)
			}
		})
		n := 0
		for _, log := range logs {
			n += len(log)
		}
		kern.ForOtherParts(int(cells[0])/c.subSize, func(j int) {
			list := kern.Reserve(j, n)
			for _, log := range logs {
				for _, i := range log {
					q := c.position(i, j)
					work[q].Count--
					work[q].IdxSum ^= uint64(i + 1)
					work[q].ValueSum ^= data[i]
					work[q].CheckSum ^= c.checksum(i)
					list = list.Put(uint32(q), work[q].Count == 1)
				}
			}
			kern.Commit(j, list)
		})
		for w := range logs {
			logs[w] = logs[w][:0]
		}
		recovered += n
		return n
	})
	if err != nil {
		return 0, err
	}
	if recovered != missing {
		return kern.Candidates, fmt.Errorf("%w (recovered %d of %d)", ErrDecodeFailed, recovered, missing)
	}
	return kern.Candidates, nil
}

// peel runs Decode's queue-driven serial peel of pure cells, filling
// recovered symbols into data/present.
func (c *Code) peel(work []Cell, data []uint64, present []bool, missing int) error {
	pos := make([]int, c.r)
	queue := make([]int, 0, 256)
	for p := range work {
		if _, ok := c.symbolAt(work, p, present); ok {
			queue = append(queue, p)
		}
	}
	recovered := 0
	for head := 0; head < len(queue); head++ {
		p := queue[head]
		idx, ok := c.symbolAt(work, p, present)
		if !ok {
			continue
		}
		val := work[p].ValueSum
		data[idx] = val
		present[idx] = true
		recovered++
		c.apply(work, idx, val, pos, -1)
		for _, q := range pos {
			if _, ok := c.symbolAt(work, q, present); ok {
				queue = append(queue, q)
			}
		}
	}
	if recovered != missing {
		return fmt.Errorf("%w (recovered %d of %d)", ErrDecodeFailed, recovered, missing)
	}
	return nil
}

// symbolAt reports whether cell p of work holds exactly one missing
// symbol, and returns its index: the cell's count is 1, its index tag
// names a symbol of data, p is that symbol's cell in p's own subtable,
// its checksum matches, and the symbol is not present. The range,
// position and presence checks keep a forged check block from naming a
// symbol out of range, writing a cell its recovery does not own, or
// recovering a symbol twice.
func (c *Code) symbolAt(work []Cell, p int, present []bool) (int, bool) {
	cell := &work[p]
	if cell.Count != 1 || cell.IdxSum == 0 || cell.IdxSum-1 >= uint64(len(present)) {
		return 0, false
	}
	i, j := int(cell.IdxSum-1), p/c.subSize
	// present[i] is read last: in subround j only i's own cell gets there,
	// and that cell's worker is the only one that writes it.
	if j >= c.r || c.position(i, j) != p || c.checksum(i) != cell.CheckSum || present[i] {
		return 0, false
	}
	return i, true
}

// apply adds (delta = +1) or subtracts (delta = -1) symbol i with value
// v into cells with plain updates; pos is the caller's scratch buffer.
func (c *Code) apply(cells []Cell, i int, v uint64, pos []int, delta int32) {
	cs := c.checksum(i)
	c.positions(i, pos)
	for _, p := range pos {
		cells[p].Count += delta
		cells[p].IdxSum ^= uint64(i + 1)
		cells[p].ValueSum ^= v
		cells[p].CheckSum ^= cs
	}
}

// MaxTolerableLoss returns the approximate number of erasures the code
// survives w.h.p.: c*(2,r) × cells, with cstar supplied by the caller
// (see internal/threshold) to keep this package dependency-light.
func (c *Code) MaxTolerableLoss(cstar float64) int {
	return int(cstar * float64(c.cells))
}
