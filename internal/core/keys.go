package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/parallel"
)

// keyVertex is a vertex's state in PeelKeys, kept side by side so that
// one cache line serves both reads of a degree-1 vertex.
type keyVertex struct {
	cnt int32  // live degree
	sum uint32 // sum of live edge ids, mod 2^32
}

// keyScratch holds the three large buffers of a PeelKeys attempt: the
// edge list, the vertex state and the peel order. KeyPeel.Release hands
// them to keyScratchPool, and the next attempt reuses them when they are
// large enough, so a warm build pays neither fresh pages nor their
// zeroing.
type keyScratch struct {
	edges []uint32
	vs    []keyVertex
	order []uint32
}

var keyScratchPool sync.Pool

// getKeyScratch returns scratch whose buffers have the given lengths
// and arbitrary contents.
func getKeyScratch(edges, vertices, order int) *keyScratch {
	s, _ := keyScratchPool.Get().(*keyScratch)
	if s == nil {
		s = new(keyScratch)
	}
	s.edges = resize(s.edges, edges)
	s.vs = resize(s.vs, vertices)
	s.order = resize(s.order, order)
	return s
}

// resize returns s with length n, reallocated only if cap(s) < n.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// ErrDuplicateKeys is returned by PeelKeys, and so by the MPHF and
// Bloomier builders, when the key set holds some key more than once.
var ErrDuplicateKeys = errors.New("duplicate keys")

// KeyPeel is the peel PeelKeys returns, in the form the builders'
// assignment sweeps read it: the subround segments as the scan emitted
// them, and the process's round accounting.
//
// PeelOrder is segment-major like OrderedResult's, and segment t is
// subround t, but inside a segment the edges are in the order the scan
// met their releasers among the subround's candidates, not sorted by
// edge id. That order is still identical at every worker count (see
// PeelKeys), and OrderedResult's elimination-order contract holds for
// it unchanged: it never depends on the order inside a segment. A
// segment-t edge's free vertex is its endpoint at position (t−1) mod 3.
// Ordered derives the full OrderedResult.
//
// PeelOrder and the edge list PeelKeys returned with the peel live in
// buffers that Release hands to the next PeelKeys call.
type KeyPeel struct {
	// Rounds, Subrounds and SurvivorHistory are as in Result.
	Rounds          int
	Subrounds       int
	SurvivorHistory []int

	// CoreVertices and CoreEdges are the size of the 2-core.
	CoreVertices int
	CoreEdges    int

	// PeelOrder lists the peeled edges segment-major, each segment in
	// scan order.
	PeelOrder []uint32

	// RoundStart[t] is the end offset of segment t in PeelOrder
	// (RoundStart[0] == 0); len == Subrounds+1.
	RoundStart []int

	// Candidates is the number of vertices the subround scans examined,
	// at most the vertex count: PeelKeys lists each vertex at most once.
	Candidates int

	n       int // vertices
	scratch *keyScratch
}

// Release hands the peel's buffers, PeelOrder and the edge list PeelKeys
// returned with it, to the next PeelKeys call, and sets PeelOrder to
// nil. Neither may be used after it; the round accounting stays valid.
// A second Release does nothing, and a peel that is never released only
// forgoes the reuse.
func (p *KeyPeel) Release() {
	if p.scratch != nil {
		keyScratchPool.Put(p.scratch)
		p.scratch, p.PeelOrder = nil, nil
	}
}

// Empty reports whether the peel reached the empty 2-core.
func (p *KeyPeel) Empty() bool { return p.CoreVertices == 0 && p.CoreEdges == 0 }

// Segments returns the number of segments of PeelOrder, Subrounds.
func (p *KeyPeel) Segments() int { return len(p.RoundStart) - 1 }

// RoundSegment returns the edges peeled in subround t (1-based), in scan
// order.
func (p *KeyPeel) RoundSegment(t int) []uint32 {
	return p.PeelOrder[p.RoundStart[t-1]:p.RoundStart[t]]
}

// Ordered derives the full OrderedResult of the peel of edges, the edge
// list PeelKeys returned with p: each segment sorted by edge id,
// RoundOf, FreeVertex and the 2-core's EdgeAlive and VertexAlive. The
// builders do not need it; tests and tools that check the peel do.
func (p *KeyPeel) Ordered(edges []uint32) *OrderedResult {
	m := len(edges) / 3
	res := &OrderedResult{
		Result: Result{
			Rounds: p.Rounds, Subrounds: p.Subrounds, SurvivorHistory: p.SurvivorHistory,
			CoreVertices: p.CoreVertices, CoreEdges: p.CoreEdges,
			VertexAlive: make([]uint8, p.n), EdgeAlive: make([]uint8, m),
		},
		PeelOrder:  slices.Clone(p.PeelOrder),
		FreeVertex: make([]uint32, m),
		RoundOf:    make([]int32, m),
		RoundStart: slices.Clone(p.RoundStart),
	}
	for t := 1; t <= res.Segments(); t++ {
		seg := res.RoundSegment(t)
		slices.Sort(seg)
		for _, e := range seg {
			res.RoundOf[e] = int32(t)
		}
	}
	deg := make([]int32, p.n) // degree in the 2-core
	for e, t := range res.RoundOf {
		if t != 0 {
			res.FreeVertex[e] = edges[3*e+int(t-1)%3]
			continue
		}
		res.EdgeAlive[e] = 1
		res.FreeVertex[e] = NoVertex
		for _, v := range edges[3*e : 3*e+3] {
			deg[v]++
		}
	}
	for v, d := range deg {
		if d > 1 {
			res.VertexAlive[v] = 1
		}
	}
	return res
}

// PeelKeys is one attempt of the hash-and-peel builders (internal/mphf,
// internal/bloomier): on pool, key i becomes edge i of a 3-partite
// hypergraph whose part j holds the subSize vertices
// [j·subSize, (j+1)·subSize), and the graph is peeled to its 2-core in
// Appendix B subrounds. PeelKeys returns the edge list — edge e is
// edges[3e:3e+3] — and the peel, whose segments are subrounds.
//
// hash is a batch hash, called once per chunk of keys: hash(ks, es)
// must write the edge of key ks[i] to es[3i:3i+3], its vertex j in part
// j (layout.VertexTriples). The edge list, the vertex state and the
// peel order come from buffers an earlier peel handed back with
// KeyPeel.Release; each part's degree pass clears its own vertices, and
// every other entry is written before it is read. A caller that is done
// with the edge list and the peel should Release it.
//
// The peel needs no incidence index. As in IBLT decoding, with edge ids
// in place of keys, every vertex keeps its live degree and the sum of
// its live edges' ids (mod 2^32), so a vertex of degree 1 names its last
// edge. Subround j frees the last edge of every part-j vertex of degree
// 1 and subtracts it from the edge's two other endpoints. Those lie in
// other parts, so part-j state is written only in other parts'
// subrounds: subround j's peel set is fixed at its barrier, and every
// edge has a unique releaser, its part-j endpoint.
//
// Each vertex is listed as a candidate at most once over the whole
// peel, so candidates total at most n = 3·subSize. The degree pass
// lists each part's vertices of degree ≤ 1, in id order, as the part's
// first candidates; later, a vertex is listed when its degree falls to
// exactly 1. Degrees only fall, so a listed vertex still has degree ≤ 1
// when its subround comes and peels then, and a vertex not listed
// first passes through degree 1 once. A part's candidates in a
// subround are therefore exactly its vertices of degree ≤ 1 not yet
// peeled: the Appendix B peel set.
//
// Nor does the peel need atomics. The scan zeroes each releasing
// vertex's degree and writes the edge into the peel order, at the
// offset of the candidate chunk that released it; after the barrier the
// chunks' releases are packed in chunk order, so the subround's segment
// is its releases in candidate order, and its end offset is recorded.
// Then one owner per other part walks the segment and subtracts every
// edge from its endpoint there (the kernel's owner pass), with plain
// writes, and appends the endpoints it leaves at degree 1 to its part's
// list in the order it meets them. Each part's next candidate list is
// thus a deterministic function of the first lists and the segments
// before it, and by induction the segments, rounds and core are
// identical at every worker count.
//
// Since no vertex is listed twice, an owner needs no check before it
// lists one, and appends with no branch (Kernel.Reserve, Appender.Put):
// its random loads of the endpoints' degrees stay in flight together
// instead of each waiting on a mispredicted test of the one before. The
// scan and the degree pass's first lists are branch-free the same way.
//
// Equal keys hash to identical edges, whose vertices keep degree ≥ 2, so
// every duplicated key survives into the core under any seed: PeelKeys
// checks only a non-empty core's keys and returns an error wrapping
// ErrDuplicateKeys if two are equal. A non-empty core with a nil error
// means the keys are distinct. The core is counted only when it is
// non-empty; a successful peel touches no per-edge state but the order.
func PeelKeys(ctx context.Context, keys []uint64, subSize int, hash func(keys []uint64, edges []uint32), pool *parallel.Pool) ([]uint32, *KeyPeel, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	m, n := len(keys), 3*subSize
	// A subround's scan writes below order[end+len(cands)], end being the
	// order's length before it. That is at most m + subSize, and at most
	// n: each earlier candidate released at most one edge, and no vertex
	// is listed twice.
	scratch := getKeyScratch(3*m, n, min(n, m+subSize))
	edges, vs, order := scratch.edges, scratch.vs, scratch.order
	if err := pool.ForCtx(ctx, m, grain, func(_, lo, hi int) {
		hash(keys[lo:hi], edges[3*lo:3*hi])
	}); err != nil {
		return nil, nil, err
	}
	first := make([][]uint32, 3)
	// Part j's entries come only from position j of each edge, so one
	// piece per part clears and counts them with no atomics. The piece
	// then lists the part's first candidates.
	if err := pool.RunRangesCtx(ctx, 3, 3, func(j, _, _ int) {
		clear(vs[j*subSize : (j+1)*subSize])
		for e := 0; e < m; e++ {
			v := &vs[edges[3*e+j]]
			v.cnt++
			v.sum += uint32(e)
		}
		// The list is sized exactly: one slot per vertex of degree ≤ 1,
		// and one for the Puts after the last of them.
		part, c := vs[j*subSize:(j+1)*subSize], 1
		for v := range part {
			if part[v].cnt <= 1 {
				c++
			}
		}
		cands := NewAppender(c)
		for v := range part {
			cands = cands.Put(uint32(j*subSize+v), part[v].cnt <= 1)
		}
		first[j] = cands.List()
	}); err != nil {
		return nil, nil, err
	}
	kern, err := NewKernel(ctx, Options{Pool: pool}, 3, subSize, first)
	if err != nil {
		return nil, nil, err
	}

	end := 0
	ends := []int{0}
	freedIn := make([]int, (subSize+grain-1)/grain) // releases per candidate chunk
	err = kern.RunCtx(ctx, nil, func(cands []uint32) int {
		j := int(cands[0]) / subSize
		sub := 3*(kern.Round()-1) + j + 1
		for len(ends) < sub {
			ends = append(ends, end) // an earlier subround had no candidates
		}
		out := order[end : end+len(cands)]
		pool.For(len(cands), grain, func(_, lo, hi int) {
			freed := 0
			dst := out[lo:hi]
			for _, v := range cands[lo:hi] {
				// Every candidate has degree ≤ 1 and peels now; one of
				// degree 1 releases its last edge. The slot is written
				// either way, so no branch waits on the load of v.
				dst[freed] = vs[v].sum
				if vs[v].cnt != 0 {
					freed++
				}
				vs[v].cnt = 0
			}
			freedIn[lo/grain] = freed
		})
		seg := end
		for c, lo := 0, 0; lo < len(cands); c, lo = c+1, lo+grain {
			end += copy(order[end:], out[lo:lo+freedIn[c]])
		}
		freed := order[seg:end]
		kern.ForOtherParts(j, func(p int) {
			list := kern.Reserve(p, len(freed))
			for _, e := range freed {
				u := edges[3*int(e)+p]
				vs[u].sum -= e
				vs[u].cnt--
				list = list.Put(u, vs[u].cnt == 1)
			}
			kern.Commit(p, list)
		})
		ends = append(ends, end)
		return len(cands)
	})
	if err != nil {
		return nil, nil, err
	}
	peel := &KeyPeel{
		Rounds:          kern.Rounds,
		Subrounds:       kern.Subrounds,
		SurvivorHistory: survivors(n, kern.Peeled),
		CoreEdges:       m - end,
		PeelOrder:       order[:end],
		RoundStart:      ends[:kern.Subrounds+1],
		Candidates:      kern.Candidates,
		n:               n,
		scratch:         scratch,
	}
	if peel.CoreEdges == 0 {
		return edges, peel, nil
	}

	for v := range vs {
		if vs[v].cnt > 1 {
			peel.CoreVertices++
		}
	}
	done := make([]bool, m)
	for _, e := range peel.PeelOrder {
		done[e] = true
	}
	left := make([]uint64, 0, peel.CoreEdges)
	for e, d := range done {
		if !d {
			left = append(left, keys[e])
		}
	}
	slices.Sort(left)
	for i := 1; i < len(left); i++ {
		if left[i] == left[i-1] {
			return nil, nil, fmt.Errorf("%w: %#x appears more than once", ErrDuplicateKeys, left[i])
		}
	}
	return edges, peel, nil
}
