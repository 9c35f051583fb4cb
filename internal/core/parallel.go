package core

import (
	"context"
	"sync/atomic"

	"repro/internal/hypergraph"
	"repro/internal/parallel"
)

// ScanPolicy selects how a parallel peel finds each (sub)round's
// candidates: vertices for the core peels, cells for the decoders.
type ScanPolicy int

const (
	// Frontier tracks only items whose state changed, so total work is
	// proportional to the graph size rather than n × rounds. This is the
	// default and matches the work bound of the sequential algorithm.
	Frontier ScanPolicy = iota

	// FullScan re-examines every item each (sub)round — exactly the
	// "one thread per cell per round" strategy of the paper's GPU
	// implementation, where a scan is a single coalesced kernel. On CPUs
	// it wastes work once the frontier is small; the ablation benchmark
	// quantifies the difference.
	FullScan
)

// Options configure the parallel peelers.
type Options struct {
	Scan      ScanPolicy
	MaxRounds int // 0 means Deadline

	// Pool runs the peel on an explicit persistent pool, amortizing
	// worker startup across many runs; nil selects the process-wide
	// default pool (parallel.Default / parallel.SetDefaultWorkers).
	Pool *parallel.Pool
}

// pool resolves the worker pool a run with these Options executes on.
func (o Options) pool() *parallel.Pool {
	if o.Pool != nil {
		return o.Pool
	}
	return parallel.Default()
}

// Parallel runs the round-synchronous peeling process of the paper on g:
// in each round, every vertex with degree < k is removed together with
// its incident edges, all in parallel. The returned Result carries the
// per-round survivor counts (Table 2's "Experiment" column) and the
// number of productive rounds (Table 1's "Rounds" column).
//
// Each round runs on the round kernel (see Kernel) in two phases. The
// kernel's select pass snapshots the set of vertices with degree < k, so
// this round's removals cannot influence this round's decisions — the
// exact process analyzed in Section 3. The peel then removes those
// vertices: each incident edge is claimed with an atomic flag so it is
// removed exactly once even when several of its endpoints peel in the
// same round, and the degrees of the other endpoints are decremented
// atomically. Both phases are sharded over a persistent worker pool
// (see Options), with no locking anywhere in the round loop.
func Parallel(g *hypergraph.Hypergraph, k int, opts Options) *Result {
	res, _ := ParallelCtx(context.Background(), g, k, opts)
	return res
}

// ParallelCtx is Parallel with cooperative cancellation: the context is
// checked at every round barrier, so a canceled peel stops within one
// round of extra work — the O(log log n) round structure is what makes
// this cheap (a single check per barrier, no polling inside the phases).
// On cancellation it returns (nil, ctx.Err()); the partially peeled
// state is abandoned. A context that can never be canceled adds no
// per-round cost beyond a nil check.
func ParallelCtx(ctx context.Context, g *hypergraph.Hypergraph, k int, opts Options) (*Result, error) {
	res, _, err := peelRounds(ctx, g, k, opts, false)
	return res, err
}

// peelRounds runs Parallel's peel and returns its Result. When tag is
// set it also returns vround, where vround[v] is the round in which
// vertex v peeled and 0 if v is in the core; ParallelOrder reads the
// peel order and orientation from it.
func peelRounds(ctx context.Context, g *hypergraph.Hypergraph, k int, opts Options, tag bool) (*Result, []int32, error) {
	kern, err := NewKernel(ctx, opts, 1, g.N, nil)
	if err != nil {
		return nil, nil, err
	}
	s := newCoreState(g, k)
	pool := kern.Pool()
	var vround []int32
	if tag {
		vround = make([]int32, g.N)
	}

	// Edges are claimed through an atomic bitset (sync/atomic has no byte
	// CAS); the byte array in coreState is synchronized from it at the end
	// so that finish() and CoreDegreesValid see the usual representation.
	eclaim := parallel.NewBitset(g.M)

	err = kern.RunCtx(ctx, s.pick, func(peelSet []uint32) int {
		round := int32(kern.Round())
		// Vertices in the set are distinct and already marked dead by the
		// select pass, so their round tags are plain writes; edge claims
		// and degree decrements need atomics.
		pool.For(len(peelSet), grain, func(w, lo, hi int) {
			for _, v := range peelSet[lo:hi] {
				if vround != nil {
					vround[v] = round
				}
				for _, e := range g.VertexEdges(int(v)) {
					if !eclaim.AtomicSet(int(e)) {
						continue
					}
					for _, u := range g.EdgeVertices(int(e)) {
						// Vertices that died this round may be enlisted
						// too (reading vdead here would race with a
						// concurrent peel of u); the select pass filters
						// them.
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
		return nil, nil, err
	}
	syncEdgeClaims(s.edead, eclaim, pool)
	return s.finish(&Result{Rounds: kern.Rounds, SurvivorHistory: survivors(g.N, kern.Peeled), Candidates: kern.Candidates}), vround, nil
}

// pick is the core peels' select pass: it appends the live vertices of
// cands with degree < k to out, marking them dead. Candidates are
// distinct within a subround, so the vdead marks are disjoint byte
// stores, and the deg/vdead reads see the previous round's values across
// the barrier.
func (s *coreState) pick(cands, out []uint32) []uint32 {
	for _, v := range cands {
		if s.vdead[v] == 0 && s.deg[v] < s.k {
			s.vdead[v] = 1
			out = append(out, v)
		}
	}
	return out
}

// survivors turns per-subround peel counts into the alive-vertex
// history of Result.SurvivorHistory.
func survivors(alive int, peeled []int) []int {
	var history []int
	for _, p := range peeled {
		alive -= p
		history = append(history, alive)
	}
	return history
}

// syncEdgeClaims copies the atomic claim bitset into the byte-per-edge
// representation shared with the sequential peeler.
func syncEdgeClaims(edead []uint8, claims *parallel.Bitset, pool *parallel.Pool) {
	pool.For(len(edead), 1<<14, func(w, lo, hi int) {
		for e := lo; e < hi; e++ {
			if claims.Get(e) {
				edead[e] = 1
			}
		}
	})
}
