package core

import (
	"context"

	"repro/internal/hypergraph"
)

// Subtables runs the Appendix B peeling variant on a partitioned
// hypergraph: each round consists of r subrounds, and subround j removes,
// in parallel, every subtable-j vertex whose degree is < k. Because each
// edge touches subtable j in exactly one vertex, no two threads in a
// subround can try to peel the same edge — the property the paper's GPU
// IBLT implementation relies on to avoid deleting an item twice, and the
// reason this peel, like the IBLT and erasure decoders and PeelKeys,
// needs no edge claims. It runs on the kernel's scan and owner pass with
// plain writes only (see Kernel).
//
// The returned Result counts productive subrounds (Result.Subrounds,
// Table 5's "Subrounds" column) and full rounds (Result.Rounds), and
// records the survivor count after every executed subround
// (Result.SurvivorHistory, Table 6's "Experiment" column).
//
// g must be partitioned (hypergraph.Partitioned); Subtables panics
// otherwise. The owner pass relies on the partition contract that
// position j of every edge lies in subtable j, which Partitioned
// guarantees and FromEdges and ReadFrom validate.
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
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := newCoreState(g, k)
	pool := opts.pool()
	var first [][]uint32
	if opts.Scan == Frontier {
		first = make([][]uint32, g.R)
		pool.RunRanges(g.R, g.R, func(j, _, _ int) {
			// One slot per vertex of degree < k, and one for the Puts
			// after the last.
			lo, c := j*g.SubtableSize, 1
			part := s.deg[lo : lo+g.SubtableSize]
			for _, d := range part {
				if d < s.k {
					c++
				}
			}
			cands := NewAppender(c)
			for v, d := range part {
				cands = cands.Put(uint32(lo+v), d < s.k)
			}
			first[j] = cands.List()
		})
	}
	kern, err := NewKernel(ctx, opts, g.R, g.SubtableSize, first)
	if err != nil {
		return nil, err
	}
	peeled := pool.NewCounter()
	logs := make([][]uint32, pool.Workers())

	// Subround j runs on subtable j's candidates in the kernel's two
	// phases, with the select fused into the scan. Every edge meets
	// subtable j in exactly one vertex, its unique releaser in this
	// subround, and the scan writes no subtable-j degree: its peel set is
	// the snapshot a separate select pass would take. The scan marks each
	// peeled vertex and its live edges dead and logs the edges in its
	// worker's log. The owner pass then gives each other subtable p one
	// worker, which decrements every logged edge's position-p endpoint
	// and lists it when its degree falls to k−1; freed vertices of later
	// subtables can peel later this round, which is why subrounds make
	// faster progress than rounds.
	//
	// Degrees only fall, so under Frontier a vertex is listed at most
	// once: first if its degree starts below k, later when it falls to
	// exactly k−1. Each subtable's candidates are thus exactly its live
	// vertices of degree < k, and the peel hands out n − CoreVertices
	// candidates in all.
	err = kern.RunCtx(ctx, nil, func(cands []uint32) int {
		peeled.Reset()
		pool.For(len(cands), grain, func(w, lo, hi int) {
			n, log := 0, logs[w]
			for _, v := range cands[lo:hi] {
				if s.vdead[v] != 0 || s.deg[v] >= s.k {
					continue
				}
				s.vdead[v] = 1
				n++
				for _, e := range g.VertexEdges(int(v)) {
					if s.edead[e] == 0 {
						s.edead[e] = 1
						log = append(log, e)
					}
				}
			}
			logs[w] = log
			peeled.Add(w, int64(n))
		})
		room := 0
		for _, log := range logs {
			room += len(log)
		}
		kern.ForOtherParts(int(cands[0])/g.SubtableSize, func(p int) {
			list := kern.Reserve(p, room)
			for _, log := range logs {
				for _, e := range log {
					u := g.Edges[int(e)*g.R+p]
					s.deg[u]--
					list = list.Put(u, s.deg[u] == s.k-1)
				}
			}
			kern.Commit(p, list)
		})
		for w := range logs {
			logs[w] = logs[w][:0]
		}
		return int(peeled.Sum())
	})
	if err != nil {
		return nil, err
	}
	return s.finish(&Result{
		Rounds:          kern.Rounds,
		Subrounds:       kern.Subrounds,
		SurvivorHistory: survivors(g.N, kern.Peeled),
		Candidates:      kern.Candidates,
	}), nil
}
