package core

import (
	"context"
	"sync/atomic"

	"repro/internal/parallel"
)

// grain is the chunk size of the core peels' parallel loops and of the
// kernel's own passes.
const grain = 2048

// Kernel is the round loop every parallel peel runs on: the
// round-synchronous process of Sections 3–4 and its Appendix B subround
// variant, for the core peels in this package and for the IBLT and
// erasure decoders. A peel's items (vertices or cells, numbered 0..n-1)
// fall into parts of equal size: one part for plain rounds, r parts
// (the subtables) for subrounds. Each round runs one subround per part,
// in order, and subround j hands part j's candidates to the consumer's
// peel action.
//
// The kernel owns what every peel shares:
//
//   - the candidates: under FullScan every item of the part; under
//     Frontier the items enlisted into the part since its last
//     subround, seeded with every item;
//   - duplicate suppression and the per-worker enlist shards, merged
//     into the part lists at the barrier;
//   - an optional select pass that fixes the peel set before any
//     removal — the snapshot semantics of the paper's process;
//   - one ctx.Err() per (sub)round barrier;
//   - the round cap, termination after a silent round, and the
//     round/subround accounting.
//
// The consumer owns its peel action: it runs its own pool.For over the
// items it is handed and calls Enlist for every item it may have made
// peelable. A consumer may skip the select pass when peeling a part-j
// item never changes whether another part-j item is peelable — true in
// subround j whenever every edge meets part j exactly once.
//
// Such a subround peel needs no atomic read-modify-write at all. Its
// action runs in two phases. The scan, over part j's candidates, writes
// only the part-j item each worker releases (every edge has one, its
// unique releaser) and logs the release: in its worker's log (the
// decoders and Subtables), or at its candidate chunk's offset of one log that is
// packed in chunk order at the barrier (PeelKeys). The owner pass,
// ForOtherParts, runs after the scan's barrier: one worker per other
// part walks the logs and applies the releases to its part with plain
// writes, enlisting what they made peelable. Part j′ is read
// by nobody before subround j′, so the deferred writes change no peel
// set. An owner enlists only its own part's items, so Enlist sets their
// pending marks with plain writes too; it keeps its compare-and-swap
// for enlists from a scan, where two workers may list one item.
type Kernel struct {
	pool      *parallel.Pool
	maxRounds int
	parts     int
	partSize  int
	round     int

	all     []uint32   // 0..n-1: the FullScan candidates and the Frontier seed
	lists   [][]uint32 // Frontier: each part's candidates
	pending []uint32   // Frontier: pending[x] != 0 while x is listed; nil under FullScan
	shards  [][]uint32 // Frontier: enlist shards, worker w's part j at w*stride+j
	stride  int        // parts plus padding that keeps workers' shard headers a cache line apart
	picks   [][]uint32 // select-pass shards, [worker]
	picked  []uint32   // the select pass's merged output
	owned   bool       // inside ForOtherParts: each part has one writer

	// Rounds counts productive rounds, and Subrounds is the index of the
	// last productive subround, counted across rounds. Peeled[i] is the
	// number of items peeled in subround i+1, with the final silent round
	// dropped. All three are final once RunCtx returns nil.
	Rounds    int
	Subrounds int
	Peeled    []int
}

// NewKernel returns the kernel of a peel over parts × partSize items
// (fewer than 2^32), run on opts' pool under its scan policy and round
// cap. It checks ctx before it allocates anything, so a canceled peel
// pays no set-up cost; consumers call it before allocating their own
// state.
func NewKernel(ctx context.Context, opts Options, parts, partSize int) (*Kernel, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pool := opts.pool()
	n := parts * partSize
	k := &Kernel{
		pool:      pool,
		maxRounds: opts.MaxRounds,
		parts:     parts,
		partSize:  partSize,
		all:       make([]uint32, n),
		picks:     make([][]uint32, pool.Workers()),
	}
	if k.maxRounds <= 0 {
		k.maxRounds = Deadline
	}
	if opts.Scan == Frontier {
		k.pending = make([]uint32, n)
		k.lists = make([][]uint32, parts)
		// Every Enlist writes its shard's slice header; three 24-byte
		// headers of padding stop two workers from contending for a
		// cache line.
		k.stride = parts + 3
		k.shards = make([][]uint32, pool.Workers()*k.stride)
	}
	pool.For(n, grain, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			k.all[i] = uint32(i)
		}
		if k.pending != nil {
			for i := lo; i < hi; i++ {
				k.pending[i] = 1
			}
		}
	})
	for j := range k.lists {
		k.lists[j] = k.part(j)
	}
	return k, nil
}

// Pool returns the pool the peel runs on.
func (k *Kernel) Pool() *parallel.Pool { return k.pool }

// Round returns the 1-based round in progress.
func (k *Kernel) Round() int { return k.round }

// Enlist makes x a candidate of its part's next subround. Under Frontier
// it lists x unless x is already listed; under FullScan, where every
// subround visits its whole part, it does nothing. Call it from worker
// w's chunks only (or with w = 0 outside any pool.For). Inside
// ForOtherParts the pending mark is a plain load and store; elsewhere it
// is taken with a compare-and-swap.
func (k *Kernel) Enlist(w int, x uint32) {
	if k.pending == nil {
		return
	}
	if k.owned {
		if k.pending[x] != 0 {
			return
		}
		k.pending[x] = 1
	} else if atomic.LoadUint32(&k.pending[x]) != 0 ||
		!atomic.CompareAndSwapUint32(&k.pending[x], 0, 1) {
		return
	}
	i := w * k.stride
	if k.parts > 1 {
		i += int(x) / k.partSize
	}
	k.shards[i] = append(k.shards[i], x)
}

// ForOtherParts runs fn(w, p) once for every part p ≠ j, in parallel on
// the kernel's pool: the owner pass of subround j. Part p has one owner,
// so fn may write part p's state with plain writes; w indexes the
// owner's Enlist shard. fn(w, p) may enlist only part-p items: their
// pending marks are then written by their owner alone, with no atomic.
// The pass runs min(W, parts−1) ways on a pool of W workers.
func (k *Kernel) ForOtherParts(j int, fn func(w, part int)) {
	k.owned = true
	k.pool.For(k.parts, 1, func(w, lo, hi int) {
		for p := lo; p < hi; p++ {
			if p != j {
				fn(w, p)
			}
		}
	})
	k.owned = false
}

// RunCtx runs rounds until one peels nothing or the round cap is
// reached. Each subround takes part j's candidates and, when sel is
// non-nil, filters them through it: sel appends the items of cands that
// are peelable now to out, marking them taken, and returns out; it runs
// sharded over the pool before any removal of the subround. If any items
// remain, peel removes them and returns how many it peeled. On
// cancellation RunCtx returns ctx.Err(), and the peel's state must be
// abandoned.
func (k *Kernel) RunCtx(ctx context.Context, sel func(cands, out []uint32) []uint32, peel func(items []uint32) int) error {
	subround := 0
	for k.round = 1; k.round <= k.maxRounds; k.round++ {
		productive := false
		for j := 0; j < k.parts; j++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			subround++
			items := k.take(j)
			if sel != nil {
				k.pool.For(len(items), grain, func(w, lo, hi int) {
					k.unlist(items[lo:hi])
					k.picks[w] = sel(items[lo:hi], k.picks[w])
				})
				k.picked = drain(k.picked[:0], k.picks)
				items = k.picked
			} else {
				k.unlist(items)
			}
			n := 0
			if len(items) > 0 {
				n = peel(items)
			}
			k.merge()
			k.Peeled = append(k.Peeled, n)
			if n > 0 {
				productive = true
				k.Subrounds = subround
			}
		}
		if !productive {
			k.Peeled = k.Peeled[:len(k.Peeled)-k.parts]
			break
		}
		k.Rounds = k.round
	}
	return nil
}

// part returns part j's items as a capacity-capped view of all.
func (k *Kernel) part(j int) []uint32 {
	lo, hi := j*k.partSize, (j+1)*k.partSize
	return k.all[lo:hi:hi]
}

// take returns part j's candidates for this subround. A Frontier list
// is handed out whole and its storage reused for the next list, which
// is only written by merge, after the subround's last read of it.
func (k *Kernel) take(j int) []uint32 {
	if k.pending == nil {
		return k.part(j)
	}
	cands := k.lists[j]
	k.lists[j] = cands[:0]
	return cands
}

// unlist clears the pending marks of taken candidates, so peeling can
// enlist them again. It runs before the subround's first removal, so
// every item a removal touches is listed for a later subround.
func (k *Kernel) unlist(items []uint32) {
	if k.pending == nil {
		return
	}
	for _, x := range items {
		k.pending[x] = 0
	}
}

// merge moves every worker's enlist shards into the part lists at the
// subround barrier.
func (k *Kernel) merge() {
	for i, s := range k.shards {
		if j := i % k.stride; j < k.parts {
			k.lists[j] = append(k.lists[j], s...)
			k.shards[i] = s[:0]
		}
	}
}

// drain appends every shard of shards to dst and resets the shards,
// retaining their capacity for the next round.
func drain(dst []uint32, shards [][]uint32) []uint32 {
	for w := range shards {
		dst = append(dst, shards[w]...)
		shards[w] = shards[w][:0]
	}
	return dst
}
