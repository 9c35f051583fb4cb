package core

import (
	"context"
	"slices"
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
//     Frontier the part's first list, then the items enlisted into the
//     part since its last subround;
//   - the first lists: the consumer's own, when it can list each item
//     at most once over the whole peel, or by default every item, with
//     duplicate suppression for the items listed later;
//   - the owners' appends to their parts' lists: branch-free for a
//     consumer's first lists, checked against pending marks otherwise;
//   - the per-worker enlist shards of a scan, merged into the part
//     lists at the barrier;
//   - an optional select pass that fixes the peel set before any
//     removal — the snapshot semantics of the paper's process;
//   - one ctx.Err() per (sub)round barrier;
//   - the round cap, termination after a silent round, and the
//     round/subround and candidate accounting.
//
// The consumer owns its peel action: it runs its own pool.For over the
// items it is handed and enlists every item it may have made peelable.
// A consumer may skip the select pass when peeling a part-j item never
// changes whether another part-j item is peelable — true in subround j
// whenever every edge meets part j exactly once.
//
// Such a subround peel needs no atomic read-modify-write at all. Its
// action runs in two phases. The scan, over part j's candidates, writes
// only the part-j item each worker releases (every edge has one, its
// unique releaser) and logs the release: in its worker's log (the
// decoders and Subtables), or at its candidate chunk's offset of one log that is
// packed in chunk order at the barrier (PeelKeys). The owner pass,
// ForOtherParts, runs after the scan's barrier: one worker per other
// part walks the logs and applies the releases to its part with plain
// writes, listing what they made peelable on its part's list. Part j′
// is read by nobody before subround j′, so the deferred writes change
// no peel set. The owner is its part's one writer, so its appends need
// no shard and no merge. Enlist, for a scan, where two workers may list
// one item, keeps its compare-and-swap and its shard.
//
// An owner lists items in one of two ways, fixed by NewKernel's first
// lists. A consumer that passes first lists (PeelKeys, Subtables,
// erasure recovery) lists each item at most once, so nothing needs to
// be checked before an item is listed: the owner takes its part's list
// with Reserve, Puts every item it touches with whether it is now
// listed (branch-free; see Appender), and hands the list back with
// Commit. A consumer on the default seed (the IBLT decoder, whose cells
// can turn peelable more than once) calls Append, which checks and sets
// the item's pending mark.
//
// A pending mark is one bit per item, and each part's bits start at a
// word boundary, so owners of different parts never write one word: a
// 2^17-key decode keeps 22 KB of marks, not 0.7 MB. A part's set bits
// are exactly the items on its list, so take clears the part's words
// when it hands the list out, with no per-item pass.
type Kernel struct {
	pool      *parallel.Pool
	maxRounds int
	parts     int
	partSize  int
	round     int
	full      bool // FullScan: every subround visits its whole part

	all     []uint32   // 0..n-1: the FullScan candidates and the default Frontier seed
	lists   []list     // Frontier: each part's candidates; FullScan: owners' scratch
	pending []uint64   // default Frontier seed: x's bit is set while x is listed
	words   int        // default Frontier seed: pending words per part
	shards  []list     // default Frontier seed: worker w's scan enlists
	picks   [][]uint32 // select-pass shards, [worker]
	picked  []uint32   // the select pass's merged output

	// Rounds counts productive rounds, and Subrounds is the index of the
	// last productive subround, counted across rounds. Peeled[i] is the
	// number of items peeled in subround i+1, with the final silent round
	// dropped. Candidates is the number of candidates handed out, summed
	// over every subround run: the work of the paper's process. All four
	// are final once RunCtx returns nil.
	Rounds     int
	Subrounds  int
	Peeled     []int
	Candidates int
}

// list is a candidate list or an enlist shard. Every append writes its
// slice header; the padding keeps two workers' headers a cache line
// apart.
type list struct {
	xs []uint32
	_  [40]byte
}

// NewKernel returns the kernel of a peel over parts × partSize items
// (fewer than 2^32), run on opts' pool under its scan policy and round
// cap. It checks ctx before it allocates anything, so a canceled peel
// pays no set-up cost; consumers call it before allocating their own
// state.
//
// Under Frontier, first[j] is part j's first candidate list, which the
// kernel takes over. A consumer that passes first lists promises to
// list every item at most once over the whole peel, in first or through
// Reserve, Put and Commit, and never to call Enlist or Append: the
// kernel then keeps no pending marks, no enlist shards and no identity
// list. That fits a peel whose items become peelable once and stay so,
// such as a vertex whose degree only falls; NewAppender fills such a
// list without a branch per item. With nil first lists every item is a
// first candidate, an owner lists items with Append, and an item
// enlisted again while listed is suppressed by its pending mark: one
// bit per item, ⌈partSize/64⌉ words per part. FullScan ignores first.
func NewKernel(ctx context.Context, opts Options, parts, partSize int, first [][]uint32) (*Kernel, error) {
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
		full:      opts.Scan == FullScan,
		lists:     make([]list, parts),
	}
	if k.maxRounds <= 0 {
		k.maxRounds = Deadline
	}
	if !k.full {
		if first != nil {
			for j := range k.lists {
				k.lists[j].xs = first[j]
			}
			return k, nil
		}
		k.words = (partSize + 63) / 64
		k.pending = make([]uint64, parts*k.words)
		for j := range parts {
			marks := k.pending[j*k.words : (j+1)*k.words]
			for i := range marks {
				marks[i] = ^uint64(0)
			}
			if tail := partSize % 64; tail != 0 {
				marks[len(marks)-1] = 1<<tail - 1
			}
		}
		k.shards = make([]list, pool.Workers())
	}
	k.all = make([]uint32, n)
	pool.For(n, grain, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			k.all[i] = uint32(i)
		}
	})
	if !k.full {
		for j := range k.lists {
			k.lists[j].xs = k.part(j)
		}
	}
	return k, nil
}

// Pool returns the pool the peel runs on.
func (k *Kernel) Pool() *parallel.Pool { return k.pool }

// Round returns the 1-based round in progress.
func (k *Kernel) Round() int { return k.round }

// Enlist makes x a candidate of its part's next subround, from a scan:
// under the default seed it lists x unless x is already listed, taking
// x's pending bit with an atomic OR (two workers may enlist items that
// share a word), and under FullScan, where every subround visits its
// whole part, it does nothing. Call it from worker w's chunks only (or
// with w = 0 outside any pool.For).
func (k *Kernel) Enlist(w int, x uint32) {
	if k.pending == nil {
		return
	}
	p := 0
	if k.parts > 1 {
		p = int(x) / k.partSize
	}
	word, bit := k.mark(p, x)
	if atomic.LoadUint64(word)&bit != 0 || atomic.OrUint64(word, bit)&bit != 0 {
		return
	}
	k.shards[w].xs = append(k.shards[w].xs, x)
}

// Append makes x, an item of part p, a candidate of part p's next
// subround, from part p's owner in ForOtherParts and from nowhere else,
// on a kernel with the default seed. The owner is the part's one
// writer, so x goes straight onto the part's list, unless x is already
// listed. Its pending bit lies in a word of part p's own, so the owner
// tests and sets it with a plain load and store. Under FullScan it does
// nothing. A kernel built with first lists keeps no marks: its owners
// list with Reserve, Put and Commit.
func (k *Kernel) Append(p int, x uint32) {
	if k.full {
		return
	}
	word, bit := k.mark(p, x)
	if *word&bit != 0 {
		return
	}
	*word |= bit
	k.lists[p].xs = append(k.lists[p].xs, x)
}

// mark returns the word holding the pending bit of x, an item of part
// p, and the bit within it.
func (k *Kernel) mark(p int, x uint32) (*uint64, uint64) {
	i := int(x) - p*k.partSize
	return &k.pending[p*k.words+i>>6], 1 << (i & 63)
}

// An Appender fills a candidate list that lists each item at most once,
// with no branch per item: Put writes every item it is given into the
// list's next free slot, and moves past the slot only if the item is
// listed. The compiler turns that move into a conditional move, so a
// loop of Puts whose listed flags hang on random loads keeps those
// loads in flight together; a branch on each flag would be
// mispredicted about as often as it is taken, and every misprediction
// throws away the loads issued after it. An Appender is a value: keep
// the one Put returns.
type Appender struct {
	buf []uint32 // the list in buf[:n], then its free slots
	n   int
}

// NewAppender returns an empty list of n slots. It takes any number of
// Puts while it lists fewer than n items: n Puts, or one more slot than
// the items a count pass found listed.
func NewAppender(n int) Appender { return Appender{buf: make([]uint32, n)} }

// Put writes x into a's next free slot and returns a with x listed if
// listed is true, and unchanged otherwise. It panics if every slot
// holds a listed item.
func (a Appender) Put(x uint32, listed bool) Appender {
	a.buf[a.n] = x
	if listed {
		a.n++
	}
	return a
}

// List returns the listed items, in the order they were put.
func (a Appender) List() []uint32 { return a.buf[:a.n] }

// Reserve hands part p's list to part p's owner in ForOtherParts, with
// n free slots: room for n Puts, one per release the owner applies.
// The owner returns the list with Commit before its pass ends. Under
// FullScan the list is scratch that Commit discards. Panics if the
// kernel has the default seed, whose owners list with Append.
func (k *Kernel) Reserve(p, n int) Appender {
	if k.pending != nil {
		panic("core: Reserve on a kernel without first lists")
	}
	xs := slices.Grow(k.lists[p].xs, n)
	return Appender{buf: xs[:cap(xs)], n: len(xs)}
}

// Commit makes a, taken from Reserve(p, ·), part p's list again: its
// items are candidates of part p's next subround.
func (k *Kernel) Commit(p int, a Appender) {
	if k.full {
		a.n = 0
	}
	k.lists[p].xs = a.buf[:a.n]
}

// ForOtherParts runs fn(p) once for every part p ≠ j, in parallel on
// the kernel's pool: the owner pass of subround j. Part p has one owner,
// so fn may write part p's state with plain writes and list part-p
// items: through Reserve, Put and Commit on a kernel built with first
// lists, and with Append on one with the default seed. The pass runs
// min(W, parts−1) ways on a pool of W workers.
func (k *Kernel) ForOtherParts(j int, fn func(p int)) {
	k.pool.For(k.parts, 1, func(_, lo, hi int) {
		for p := lo; p < hi; p++ {
			if p != j {
				fn(p)
			}
		}
	})
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
	if sel != nil {
		k.picks = make([][]uint32, k.pool.Workers())
	}
	subround := 0
	for k.round = 1; k.round <= k.maxRounds; k.round++ {
		productive := false
		for j := 0; j < k.parts; j++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			subround++
			items := k.take(j)
			k.Candidates += len(items)
			if sel != nil {
				k.pool.For(len(items), grain, func(w, lo, hi int) {
					k.picks[w] = sel(items[lo:hi], k.picks[w])
				})
				k.picked = drain(k.picked[:0], k.picks)
				items = k.picked
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
// is only written after the subround's last read of it: by the owner
// passes of other parts' subrounds, or by merge at the barrier.
//
// Under the default seed, part j's set pending bits are exactly the
// items on its list (merge has emptied the shards), so take unlists
// them all by clearing the part's words. That happens before the
// subround's first removal, so every item a removal touches is listed
// for a later subround.
func (k *Kernel) take(j int) []uint32 {
	if k.full {
		return k.part(j)
	}
	cands := k.lists[j].xs
	k.lists[j].xs = cands[:0]
	if k.pending != nil {
		clear(k.pending[j*k.words : (j+1)*k.words])
	}
	return cands
}

// merge moves every worker's enlist shard into the part lists at the
// subround barrier, worker by worker, so each list keeps the workers'
// order.
func (k *Kernel) merge() {
	for w := range k.shards {
		s := k.shards[w].xs
		if k.parts == 1 {
			k.lists[0].xs = append(k.lists[0].xs, s...)
		} else {
			for _, x := range s {
				j := int(x) / k.partSize
				k.lists[j].xs = append(k.lists[j].xs, x)
			}
		}
		k.shards[w].xs = s[:0]
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
