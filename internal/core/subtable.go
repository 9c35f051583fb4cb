package core

import (
	"context"
	"sync/atomic"

	"repro/internal/hypergraph"
)

// Subtables runs the Appendix B peeling variant on a partitioned
// hypergraph: each round consists of r subrounds, and subround j removes,
// in parallel, every subtable-j vertex whose degree is < k. Because each
// edge touches subtable j in exactly one vertex, no two threads in a
// subround can try to peel the same edge — the property the paper's GPU
// IBLT implementation relies on to avoid deleting an item twice, and the
// reason this peel, like the IBLT and erasure decoders and PeelKeys,
// needs no edge claims.
//
// The returned Result counts productive subrounds (Result.Subrounds,
// Table 5's "Subrounds" column) and full rounds (Result.Rounds), and
// records the survivor count after every executed subround
// (Result.SurvivorHistory, Table 6's "Experiment" column).
//
// g must be partitioned (hypergraph.Partitioned); Subtables panics
// otherwise.
func Subtables(g *hypergraph.Hypergraph, k int, opts Options) *Result {
	res, _ := SubtablesCtx(context.Background(), g, k, opts)
	return res
}

// SubtablesCtx is Subtables with cooperative cancellation, checked at
// every subround barrier (a finer grain than the full-round barrier of
// ParallelCtx, matching the subround structure). On cancellation it
// returns (nil, ctx.Err()). Panics if g is not partitioned — the
// subround schedule is meaningless without subtables.
func SubtablesCtx(ctx context.Context, g *hypergraph.Hypergraph, k int, opts Options) (*Result, error) {
	if g.SubtableSize == 0 {
		panic("core: Subtables requires a partitioned hypergraph")
	}
	kern, err := NewKernel(ctx, opts, g.R, g.SubtableSize)
	if err != nil {
		return nil, err
	}
	s := newCoreState(g, k)
	pool := kern.Pool()
	peeled := pool.NewCounter()

	// Subround j runs on subtable j's candidates with the select fused
	// into the peel. Every edge meets subtable j in exactly one vertex,
	// its unique releaser in this subround: peeling a subtable-j vertex
	// writes no other subtable-j degree, so the peel set is the snapshot
	// a separate select pass would take, and an edge's dead mark is
	// touched in subround j by that endpoint alone. Only the degree
	// decrements in other subtables are atomic. Freed vertices are
	// enlisted into their own subtable's next subround; cross-subtable
	// ones can be peeled later this round, which is why subrounds make
	// faster progress than rounds.
	err = kern.RunCtx(ctx, nil, func(cands []uint32) int {
		peeled.Reset()
		pool.For(len(cands), grain, func(w, lo, hi int) {
			n := 0
			for _, v := range cands[lo:hi] {
				if s.vdead[v] != 0 || s.deg[v] >= s.k {
					continue
				}
				s.vdead[v] = 1
				n++
				for _, e := range g.VertexEdges(int(v)) {
					if s.edead[e] != 0 {
						continue
					}
					s.edead[e] = 1
					for _, u := range g.EdgeVertices(int(e)) {
						if u != v && atomic.AddInt32(&s.deg[u], -1) < s.k {
							kern.Enlist(w, u)
						}
					}
				}
			}
			peeled.Add(w, int64(n))
		})
		return int(peeled.Sum())
	})
	if err != nil {
		return nil, err
	}
	return s.finish(&Result{
		Rounds:          kern.Rounds,
		Subrounds:       kern.Subrounds,
		SurvivorHistory: survivors(g.N, kern.Peeled),
	}), nil
}
