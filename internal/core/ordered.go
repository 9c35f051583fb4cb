package core

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

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
// It runs on the round kernel with Parallel's select pass; only the
// peel differs, as two sub-phases per round. First every peel-set vertex
// claims its live edges with an atomic min on the FreeVertex slot, so
// when several endpoints of an edge peel in the same round the minimum
// vertex id wins regardless of scheduling — the step that makes the
// orientation deterministic where Parallel's first-come bitset claim is
// not. Then each edge's unique winner settles it: marks it dead, tags
// its round, and decrements the other endpoints' degrees. (Rounds that
// would run inline anyway — 1-worker pools and grain-sized tail rounds —
// use a merged single pass instead; see the peel action.) PeelOrder is
// reconstructed after the last round with a counting sort over the
// round tags (segmentOrder). The claim pass costs one more traversal of
// the peel set per round than Parallel; the Result fields (rounds,
// history, core) are identical to Parallel's.
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
	kern, err := NewKernel(ctx, opts, 1, g.N)
	if err != nil {
		return nil, err
	}
	s := newCoreState(g, k)
	pool := kern.Pool()

	res := &OrderedResult{
		FreeVertex: make([]uint32, g.M),
		RoundOf:    make([]int32, g.M),
	}
	for e := range res.FreeVertex {
		res.FreeVertex[e] = NoVertex
	}
	claim := res.FreeVertex // the claim array IS the orientation

	err = kern.RunCtx(ctx, s.pick, func(peelSet []uint32) int {
		round := int32(kern.Round())
		// The peel removes the peel set under the minimum-endpoint claim
		// rule: when several endpoints of an edge peel in the same round,
		// the smallest vertex id frees it — a scheduling-independent
		// tie-break, so the orientation is identical at every worker
		// count. Two executions implement the same rule:
		//
		//   - inline (1-worker pool, or a peel set that fits one grain —
		//     i.e. serial peels and the small-frontier tail rounds, where
		//     pool.For would run on the calling goroutine anyway): one
		//     merged pass over the peel set sorted ascending. First-come
		//     claiming in ascending vertex order IS the minimum rule — every peeling endpoint of an edge
		//     attempts it, and the smallest attempts first — and a
		//     single goroutine needs no atomics and no second pass.
		//
		//   - parallel: two sub-phases with a barrier between. B1 bids
		//     for every live incident edge with an atomic min; B2 lets
		//     each edge's unique winner settle it (the edead mark and
		//     round tag are single-writer; only degree decrements and
		//     enlisting stay atomic). Dead edges keep the orientation of
		//     the round that freed them — B1 skips them, and their claims
		//     can never equal a this-round vertex in B2. A vertex listed
		//     twice in one edge settles it once (the edead re-check).
		if pool.Workers() == 1 || len(peelSet) <= grain {
			slices.Sort(peelSet)
			for _, v := range peelSet {
				for _, e := range g.VertexEdges(int(v)) {
					if s.edead[e] != 0 {
						continue
					}
					s.edead[e] = 1
					claim[e] = v
					res.RoundOf[e] = round
					for _, u := range g.EdgeVertices(int(e)) {
						if u == v {
							continue
						}
						s.deg[u]--
						if s.deg[u] < s.k {
							kern.Enlist(0, u)
						}
					}
				}
			}
			return len(peelSet)
		}
		pool.For(len(peelSet), grain, func(_, lo, hi int) {
			for _, v := range peelSet[lo:hi] {
				for _, e := range g.VertexEdges(int(v)) {
					if s.edead[e] == 0 {
						claimMin(&claim[e], v)
					}
				}
			}
		})
		pool.For(len(peelSet), grain, func(w, lo, hi int) {
			for _, v := range peelSet[lo:hi] {
				for _, e := range g.VertexEdges(int(v)) {
					if claim[e] != v || s.edead[e] != 0 {
						continue
					}
					s.edead[e] = 1
					res.RoundOf[e] = round
					for _, u := range g.EdgeVertices(int(e)) {
						if u != v && atomic.AddInt32(&s.deg[u], -1) < s.k {
							kern.Enlist(w, u)
						}
					}
				}
			}
		})
		return len(peelSet)
	})
	if err != nil {
		return nil, err
	}
	res.Rounds = kern.Rounds
	res.SurvivorHistory = survivors(g.N, kern.Peeled)

	res.PeelOrder, res.RoundStart = segmentOrder(res.RoundOf, res.Rounds)
	s.finish(&res.Result)
	return res, nil
}

// segmentOrder lists the edges with a nonzero segment tag, tags[e] in
// 1..segments, segment-major, and returns the list with the end offset
// of every segment (start[0] == 0). It is a counting sort over the tags:
// start is the prefix sum of the per-segment histogram, and scattering
// edges in ascending id order leaves every segment already sorted, so
// ParallelOrder needs no per-segment sort and no order shards in its
// round loop.
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

// claimMin lowers *addr to v if v is smaller, atomically — the
// deterministic tie-break for edges contended by several same-round
// peeling endpoints. NoVertex (max uint32) is the unclaimed value, so
// the first bid always lands.
func claimMin(addr *uint32, v uint32) {
	for {
		cur := atomic.LoadUint32(addr)
		if v >= cur {
			return
		}
		if atomic.CompareAndSwapUint32(addr, cur, v) {
			return
		}
	}
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
