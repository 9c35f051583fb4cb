package core

import (
	"context"
	"fmt"

	"repro/internal/hypergraph"
)

// OrderedResult extends Result with the artifacts the data-structure
// constructions consume — the peel order and the edge → vertex
// orientation — produced by a round-synchronous parallel peel instead
// of the sequential queue peel. Two peels produce it, and they differ
// in what a segment of the order is:
//
//   - PeelKeys, the builders' peel, runs Appendix B subrounds on a
//     3-partite graph; its segments are subrounds. Subround j frees an
//     edge only through the edge's one part-j endpoint, so every edge
//     has a unique releaser, and a segment-t edge's free vertex is its
//     endpoint at position (t−1) mod 3. The builders read PeelKeys's
//     KeyPeel, whose segments are in scan order; KeyPeel.Ordered
//     derives this OrderedResult from it.
//   - ParallelOrder peels any hypergraph in plain rounds; its segments
//     are rounds. Several endpoints of an edge can peel in one round,
//     and the minimum vertex id frees it.
//
// PeelOrder is segment-major: segment 1's edges first, then segment
// 2's, and so on, each segment sorted by edge id. Both peels are
// bit-stable: a given graph and k produce identical PeelOrder,
// FreeVertex and RoundOf at every worker count and on every run.
//
// Reverse segment-major order is a valid elimination order for k = 2
// with full parallelism inside a segment. A peeled vertex has at most
// k−1 = 1 live edge, so a segment's edges have distinct free vertices,
// and a segment-t edge's non-free endpoints free no edge of segment t
// or earlier: they still hold that live edge, so they free their own
// edge in a later segment or never. Processing segments in reverse,
// with any (even concurrent) order inside one, therefore only reads
// finalized values, which is what the parallel assignment sweeps in
// internal/mphf and internal/bloomier rely on. For k > 2 a vertex may
// keep up to k−1 live edges, within-round dependencies can occur, and
// only the grouping itself is guaranteed. ValidateEliminationOrder
// checks the property explicitly.
type OrderedResult struct {
	Result

	// PeelOrder lists peeled edges segment-major, each segment sorted
	// ascending by edge id.
	PeelOrder []uint32

	// FreeVertex[e] is the vertex that released edge e (NoVertex if e is
	// in the core). Each vertex appears at most k-1 times.
	FreeVertex []uint32

	// RoundOf[e] is the 1-based segment (round or subround) that peeled
	// edge e; 0 for edges left in the core.
	RoundOf []int32

	// RoundStart[t] is the end offset of segment t in PeelOrder
	// (RoundStart[0] == 0), so segment t's edges are
	// PeelOrder[RoundStart[t-1]:RoundStart[t]]. len == Segments()+1.
	RoundStart []int
}

// Segments returns the number of segments of PeelOrder: Rounds for
// ParallelOrder, Subrounds for PeelKeys.
func (r *OrderedResult) Segments() int { return len(r.RoundStart) - 1 }

// RoundSegment returns the edges peeled in segment t (1-based), sorted
// by edge id.
func (r *OrderedResult) RoundSegment(t int) []uint32 {
	return r.PeelOrder[r.RoundStart[t-1]:r.RoundStart[t]]
}

// ParallelOrder runs the round-synchronous peeling process of Parallel
// and additionally produces the peel order and edge orientation of an
// OrderedResult, for any hypergraph: Runtime.PeelOrdered runs it. The
// builders, whose graphs are 3-partite, use PeelKeys instead. See
// OrderedResult for the determinism and elimination-order contracts.
//
// It is a round labelling of Parallel's peel, which it runs unchanged
// but for one plain write per peeled vertex: the round in which the
// vertex peeled (the vertices of a peel set are distinct). In the
// paper's round process an edge dies in the round its first endpoint
// peels, and every endpoint peeling in that round had been selected
// before any removal; the smallest of them frees it, a scheduling-
// independent choice. So after the peel one parallel pass over the
// edges sets RoundOf[e] to the least nonzero round among e's endpoints
// and FreeVertex[e] to the smallest endpoint peeled in that round, and
// a counting sort over the round tags (segmentOrder) builds PeelOrder.
// The Result fields (rounds, history, core) are Parallel's.
func ParallelOrder(g *hypergraph.Hypergraph, k int, opts Options) *OrderedResult {
	res, _ := ParallelOrderCtx(context.Background(), g, k, opts)
	return res
}

// ParallelOrderCtx is ParallelOrder with cooperative cancellation,
// checked once at every round barrier like ParallelCtx: a canceled peel
// stops within one round of extra work and returns (nil, ctx.Err()),
// abandoning the partial state.
//
//peelvet:deterministic
func ParallelOrderCtx(ctx context.Context, g *hypergraph.Hypergraph, k int, opts Options) (*OrderedResult, error) {
	peel, vround, err := peelRounds(ctx, g, k, opts, true)
	if err != nil {
		return nil, err
	}
	res := &OrderedResult{
		Result:     *peel,
		FreeVertex: make([]uint32, g.M),
		RoundOf:    make([]int32, g.M),
	}
	// Edge e died in the round its first endpoint peeled, and the
	// smallest endpoint peeled in that round frees it.
	opts.pool().For(g.M, grain, func(_, lo, hi int) {
		for e := lo; e < hi; e++ {
			free, round := NoVertex, int32(0)
			for _, u := range g.EdgeVertices(e) {
				if t := vround[u]; t != 0 && (round == 0 || t < round || t == round && u < free) {
					free, round = u, t
				}
			}
			res.FreeVertex[e], res.RoundOf[e] = free, round
		}
	})
	res.PeelOrder, res.RoundStart = segmentOrder(res.RoundOf, res.Rounds)
	return res, nil
}

// segmentOrder lists the edges with a nonzero segment tag, tags[e] in
// 1..segments, segment-major, and returns the list with the end offset
// of every segment (start[0] == 0). It is a counting sort over the tags:
// start is the prefix sum of the per-segment histogram, and scattering
// edges in ascending id order leaves every segment already sorted, so
// ParallelOrder needs no per-segment sort.
func segmentOrder(tags []int32, segments int) (order []uint32, start []int) {
	start = make([]int, segments+1)
	for _, t := range tags {
		if t > 0 {
			start[t]++
		}
	}
	for t := 1; t <= segments; t++ {
		start[t] += start[t-1]
	}
	cursors := append([]int(nil), start[:segments]...)
	order = make([]uint32, start[segments])
	for e, t := range tags {
		if t > 0 {
			order[cursors[t-1]] = uint32(e)
			cursors[t-1]++
		}
	}
	return order, start
}

// ValidateEliminationOrder checks the contracts an OrderedResult must
// satisfy for the reverse segment-major assignment sweeps to be sound:
//
//   - structural consistency: RoundStart brackets PeelOrder into Rounds
//     or Subrounds segments, each segment is sorted by edge id, RoundOf
//     matches the segment, every peeled edge's free vertex is one of its
//     endpoints, and no vertex frees more than k-1 edges;
//   - the elimination property: every non-free endpoint of a segment-t
//     edge that frees an edge at all frees it in a segment strictly
//     after t (so processing segments in reverse, with any order inside
//     a segment, only reads finalized values).
//
// The elimination property is a theorem for k = 2 and checked here by
// construction for any input. Intended for tests and debugging; O(m·r).
func ValidateEliminationOrder(g *hypergraph.Hypergraph, ord *OrderedResult, k int) error {
	segs := ord.Segments()
	if segs < 0 || (segs != ord.Rounds && segs != ord.Subrounds) || ord.RoundStart[0] != 0 ||
		ord.RoundStart[segs] != len(ord.PeelOrder) {
		return fmt.Errorf("core: RoundStart %v inconsistent with %d rounds, %d subrounds, %d peeled edges",
			ord.RoundStart, ord.Rounds, ord.Subrounds, len(ord.PeelOrder))
	}
	if len(ord.PeelOrder)+ord.CoreEdges != g.M {
		return fmt.Errorf("core: %d peeled + %d core edges != m=%d", len(ord.PeelOrder), ord.CoreEdges, g.M)
	}
	freed := make([]int32, g.N)      // edges freed per vertex
	freedRound := make([]int32, g.N) // segment in which the vertex freed (0: none)
	seen := make([]bool, g.M)
	for t := 1; t <= segs; t++ {
		seg := ord.RoundSegment(t)
		for i, e := range seg {
			if i > 0 && seg[i-1] >= e {
				return fmt.Errorf("core: segment %d not sorted at %d", t, i)
			}
			if seen[e] {
				return fmt.Errorf("core: edge %d peeled twice", e)
			}
			seen[e] = true
			if ord.RoundOf[e] != int32(t) {
				return fmt.Errorf("core: edge %d in segment %d but RoundOf=%d", e, t, ord.RoundOf[e])
			}
			if ord.EdgeAlive[e] != 0 {
				return fmt.Errorf("core: peeled edge %d still alive", e)
			}
			v := ord.FreeVertex[e]
			if v == NoVertex {
				return fmt.Errorf("core: peeled edge %d has no free vertex", e)
			}
			endpoint := false
			for _, u := range g.EdgeVertices(int(e)) {
				if u == v {
					endpoint = true
				}
			}
			if !endpoint {
				return fmt.Errorf("core: free vertex %d not an endpoint of edge %d", v, e)
			}
			freed[v]++
			if freed[v] > int32(k-1) {
				return fmt.Errorf("core: vertex %d frees %d > k-1 edges", v, freed[v])
			}
			freedRound[v] = int32(t)
		}
	}
	for e := 0; e < g.M; e++ {
		if ord.RoundOf[e] == 0 {
			if ord.FreeVertex[e] != NoVertex {
				return fmt.Errorf("core: core edge %d has free vertex %d", e, ord.FreeVertex[e])
			}
			continue
		}
		for _, u := range g.EdgeVertices(e) {
			if u == ord.FreeVertex[e] {
				continue
			}
			if freedRound[u] != 0 && freedRound[u] <= ord.RoundOf[e] {
				return fmt.Errorf("core: edge %d (segment %d) reads vertex %d finalized only in segment %d",
					e, ord.RoundOf[e], u, freedRound[u])
			}
		}
	}
	return nil
}
