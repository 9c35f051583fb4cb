package core

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/parallel"
)

// keyVertex is a vertex's state in PeelKeys, kept side by side so that
// one cache line serves both reads of a degree-1 vertex.
type keyVertex struct {
	cnt int32  // live degree
	sum uint32 // sum of live edge ids, mod 2^32
}

// ErrDuplicateKeys is returned by PeelKeys, and so by the MPHF and
// Bloomier builders, when the key set holds some key more than once.
var ErrDuplicateKeys = errors.New("duplicate keys")

// PeelKeys is one attempt of the hash-and-peel builders (internal/mphf,
// internal/bloomier): on pool, key i becomes edge i = hash(keys[i]) of a
// 3-partite hypergraph whose part j holds the subSize vertices
// [j·subSize, (j+1)·subSize), and the graph is peeled to its 2-core in
// Appendix B subrounds. hash(x)[j] must lie in part j. PeelKeys returns
// the edge list — edge e is edges[3e:3e+3] — and the peel, whose
// segments are subrounds.
//
// The peel needs no incidence index. As in IBLT decoding, with edge ids
// in place of keys, every vertex keeps its live degree and the sum of
// its live edges' ids (mod 2^32), so a vertex of degree 1 names its last
// edge. Subround j frees the last edge of every part-j vertex of degree
// 1 and subtracts it from the edge's two other endpoints. Those lie in
// other parts, so part-j state is written only in other parts'
// subrounds: subround j's peel set is fixed at its barrier, and every
// edge has a unique releaser, its part-j endpoint. The result is
// therefore identical at every worker count with no claim pass. Nor does
// it need atomics: the scan zeroes each releasing vertex's degree,
// records the edge's subround and logs the edge in its worker's log, and
// then one owner per other part subtracts every logged edge from its
// endpoint there (the kernel's owner pass), with plain writes. The scan
// stores no free vertex: an edge freed in subround t was released by its
// endpoint in part (t−1) mod 3, so FreeVertex is read off RoundOf and
// the edge list after the peel.
//
// Equal keys hash to identical edges, whose vertices keep degree ≥ 2, so
// every duplicated key survives into the core under any seed: PeelKeys
// checks only a non-empty core's keys and returns an error wrapping
// ErrDuplicateKeys if two are equal. A non-empty core with a nil error
// means the keys are distinct.
func PeelKeys(ctx context.Context, keys []uint64, subSize int, hash func(x uint64) [3]uint32, pool *parallel.Pool) ([]uint32, *OrderedResult, error) {
	kern, err := NewKernel(ctx, Options{Pool: pool}, 3, subSize)
	if err != nil {
		return nil, nil, err
	}
	m, n := len(keys), 3*subSize
	edges := make([]uint32, 3*m)
	if err := pool.ForCtx(ctx, m, grain, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			*(*[3]uint32)(edges[3*i:]) = hash(keys[i])
		}
	}); err != nil {
		return nil, nil, err
	}
	vs := make([]keyVertex, n)
	// Part j's entries come only from position j of each edge, so one
	// piece per part needs no atomics.
	if err := pool.RunRangesCtx(ctx, 3, 3, func(j, _, _ int) {
		for e := 0; e < m; e++ {
			v := &vs[edges[3*e+j]]
			v.cnt++
			v.sum += uint32(e)
		}
	}); err != nil {
		return nil, nil, err
	}

	ord := &OrderedResult{
		FreeVertex: make([]uint32, m),
		RoundOf:    make([]int32, m),
	}
	peeled := pool.NewCounter()
	freed := make([][]uint32, pool.Workers())
	err = kern.RunCtx(ctx, nil, func(cands []uint32) int {
		j := int(cands[0]) / subSize
		sub := int32(3*(kern.Round()-1) + j + 1)
		peeled.Reset()
		pool.For(len(cands), grain, func(w, lo, hi int) {
			p := 0
			for _, v := range cands[lo:hi] {
				if vs[v].cnt > 1 {
					continue
				}
				// A candidate of degree ≤ 1 peels now and is counted
				// once: degrees only fall, and a vertex is listed again
				// only when its degree falls to 1.
				p++
				if vs[v].cnt == 0 {
					continue
				}
				e := vs[v].sum
				vs[v].cnt = 0
				ord.RoundOf[e] = sub
				freed[w] = append(freed[w], e)
			}
			peeled.Add(w, int64(p))
		})
		kern.ForOtherParts(j, func(w, p int) {
			for _, log := range freed {
				for _, e := range log {
					u := edges[3*int(e)+p]
					vs[u].sum -= e
					if vs[u].cnt--; vs[u].cnt == 1 {
						kern.Enlist(w, u)
					}
				}
			}
		})
		for w := range freed {
			freed[w] = freed[w][:0]
		}
		return int(peeled.Sum())
	})
	if err != nil {
		return nil, nil, err
	}
	ord.Rounds, ord.Subrounds = kern.Rounds, kern.Subrounds
	ord.SurvivorHistory = survivors(n, kern.Peeled)
	ord.PeelOrder, ord.RoundStart = segmentOrder(ord.RoundOf, kern.Subrounds)
	ord.VertexAlive = make([]uint8, n)
	for v := range vs {
		if vs[v].cnt > 1 {
			ord.VertexAlive[v] = 1
			ord.CoreVertices++
		}
	}
	ord.EdgeAlive = make([]uint8, m)
	for e, t := range ord.RoundOf {
		if t == 0 {
			ord.EdgeAlive[e] = 1
			ord.FreeVertex[e] = NoVertex
			ord.CoreEdges++
		} else {
			ord.FreeVertex[e] = edges[3*e+int(t-1)%3]
		}
	}
	if ord.Empty() {
		return edges, ord, nil
	}

	left := make([]uint64, 0, ord.CoreEdges)
	for e, alive := range ord.EdgeAlive {
		if alive != 0 {
			left = append(left, keys[e])
		}
	}
	slices.Sort(left)
	for i := 1; i < len(left); i++ {
		if left[i] == left[i-1] {
			return nil, nil, fmt.Errorf("%w: %#x appears more than once", ErrDuplicateKeys, left[i])
		}
	}
	return edges, ord, nil
}
