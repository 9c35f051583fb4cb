// Package core implements the peeling processes analyzed in Jiang,
// Mitzenmacher, and Thaler, "Parallel Peeling Algorithms" (SPAA 2014):
//
//   - Sequential: the classic queue-driven greedy peel (linear time),
//     which also produces the peel order and edge orientation that the
//     downstream applications (IBLT, MPHF, XORSAT, cuckoo) consume.
//   - Parallel: the round-synchronous process of Sections 3-4 — every
//     round removes *all* vertices of degree < k simultaneously — run
//     across goroutines, with an atomic claim per edge because several
//     endpoints of an edge can peel in one round. ParallelOrder labels
//     that peel's edges with the round that freed them and the smallest
//     endpoint peeled in it, which gives a deterministic peel order and
//     orientation with no claim pass.
//   - Subtables: the Appendix B variant used by the paper's GPU IBLT
//     implementation — each round consists of r subrounds, subround j
//     peeling only subtable j, which guarantees no item is peeled twice,
//     so it runs with plain writes only.
//     PeelKeys runs the same process for the MPHF and Bloomier builders
//     on a per-vertex degree and edge-id sum, with no incidence index.
//
// All three leave exactly the same k-core (peeling is confluent); the
// tests verify this, and the parallel variants additionally report the
// per-round survivor counts that Tables 1, 2, 5, and 6 of the paper are
// built from.
package core

import (
	"fmt"

	"repro/internal/hypergraph"
)

// Deadline caps the number of rounds any peeler will run, as a guard
// against a malformed graph; the theory needs only O(log n) rounds even
// above the threshold, so the cap is never reached in practice.
const Deadline = 1 << 20

// NoVertex marks an edge that was never peeled (it sits in the k-core) in
// orientation arrays.
const NoVertex = ^uint32(0)

// Result describes the outcome of a peeling run.
type Result struct {
	// Rounds is the number of peeling rounds executed that removed at
	// least one vertex. For the subtable peeler this counts full rounds
	// (of r subrounds each); see Subrounds.
	Rounds int

	// Subrounds counts productive subrounds for the subtable peeler: the
	// index of the last subround that removed a vertex, counted across
	// rounds (r subrounds per round). Zero for the other peelers.
	Subrounds int

	// SurvivorHistory[t-1] is the number of alive vertices after round t,
	// for t = 1..Rounds. For the subtable peeler the history is per
	// subround instead (length Subrounds, padded to full rounds).
	SurvivorHistory []int

	// CoreVertices and CoreEdges are the size of the remaining k-core.
	CoreVertices int
	CoreEdges    int

	// Candidates is the number of vertices the parallel peelers' rounds
	// examined, summed over every (sub)round run: the process's work,
	// at most N + R·M under Frontier. Zero for Sequential.
	Candidates int

	// VertexAlive[v] != 0 iff vertex v survived (is in the k-core).
	VertexAlive []uint8

	// EdgeAlive[e] != 0 iff edge e survived (is in the k-core).
	EdgeAlive []uint8
}

// Empty reports whether peeling reached the empty k-core — the success
// condition for all the data-structure applications.
func (r *Result) Empty() bool { return r.CoreVertices == 0 && r.CoreEdges == 0 }

// validateK panics if k is not a valid core order (k >= 1).
func validateK(k int) {
	if k < 1 {
		panic(fmt.Sprintf("core: k = %d must be >= 1", k))
	}
}

// coreState is the shared mutable state of a peeling run.
type coreState struct {
	g     *hypergraph.Hypergraph
	k     int32
	deg   []int32
	vdead []uint8
	edead []uint8
}

func newCoreState(g *hypergraph.Hypergraph, k int) *coreState {
	validateK(k)
	return &coreState{
		g:     g,
		k:     int32(k),
		deg:   g.Degrees(),
		vdead: make([]uint8, g.N),
		edead: make([]uint8, g.M),
	}
}

// finish counts the residual core and packages a Result.
func (s *coreState) finish(res *Result) *Result {
	coreV, coreE := 0, 0
	alive := make([]uint8, s.g.N)
	ealive := make([]uint8, s.g.M)
	for v := range s.vdead {
		if s.vdead[v] == 0 {
			alive[v] = 1
			coreV++
		}
	}
	for e := range s.edead {
		if s.edead[e] == 0 {
			ealive[e] = 1
			coreE++
		}
	}
	res.CoreVertices = coreV
	res.CoreEdges = coreE
	res.VertexAlive = alive
	res.EdgeAlive = ealive
	return res
}

// SeqResult extends Result with the artifacts only sequential peeling can
// produce cheaply: the order vertices were peeled and, for each peeled
// edge, the vertex whose low degree released it. The applications use the
// orientation: for k = 2 every vertex releases at most one edge, so the
// orientation is an injective edge -> vertex assignment (the basis of the
// MPHF construction and peeling-based cuckoo placement).
type SeqResult struct {
	Result

	// PeelOrder lists peeled edges in removal order.
	PeelOrder []uint32

	// FreeVertex[e] is the vertex that released edge e (NoVertex if e is
	// in the core). Each vertex appears at most k-1 times.
	FreeVertex []uint32
}

// Sequential peels g to its k-core with the classic queue algorithm and
// returns the core together with the peel order and orientation. Runtime
// is O(n + m·r).
func Sequential(g *hypergraph.Hypergraph, k int) *SeqResult {
	s := newCoreState(g, k)
	res := &SeqResult{
		PeelOrder:  make([]uint32, 0, g.M),
		FreeVertex: make([]uint32, g.M),
	}
	for e := range res.FreeVertex {
		res.FreeVertex[e] = NoVertex
	}

	queue := make([]uint32, 0, g.N)
	for v := 0; v < g.N; v++ {
		if s.deg[v] < s.k {
			queue = append(queue, uint32(v))
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		if s.vdead[v] != 0 {
			continue
		}
		s.vdead[v] = 1
		for _, e := range g.VertexEdges(int(v)) {
			if s.edead[e] != 0 {
				continue
			}
			s.edead[e] = 1
			res.FreeVertex[e] = v
			res.PeelOrder = append(res.PeelOrder, e)
			for _, u := range g.EdgeVertices(int(e)) {
				if u == v || s.vdead[u] != 0 {
					continue
				}
				s.deg[u]--
				if s.deg[u] < s.k {
					queue = append(queue, u)
				}
			}
		}
	}
	// Sequential peeling has no round structure; round counts come from
	// the Parallel and Subtables peelers. Rounds stays 0 here.
	s.finish(&res.Result)
	return res
}

// CoreDegreesValid checks the defining property of the k-core on a
// result: every surviving vertex has at least k surviving incident edges,
// and every surviving edge has only surviving endpoints. Used by tests
// and available for callers that want a postcondition check.
func CoreDegreesValid(g *hypergraph.Hypergraph, res *Result, k int) error {
	for v := 0; v < g.N; v++ {
		if res.VertexAlive[v] == 0 {
			continue
		}
		d := 0
		for _, e := range g.VertexEdges(v) {
			if res.EdgeAlive[e] != 0 {
				d++
			}
		}
		if d < k {
			return fmt.Errorf("core: surviving vertex %d has degree %d < k=%d", v, d, k)
		}
	}
	for e := 0; e < g.M; e++ {
		if res.EdgeAlive[e] == 0 {
			continue
		}
		for _, u := range g.EdgeVertices(e) {
			if res.VertexAlive[u] == 0 {
				return fmt.Errorf("core: surviving edge %d has dead endpoint %d", e, u)
			}
		}
	}
	return nil
}
