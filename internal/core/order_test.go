package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/hypergraph"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// TestParallelOrderMatchesParallel checks the ordered peel computes the
// same peeling process as Parallel — identical rounds, survivor history,
// and k-core — and the same peeled edge set as Sequential (peeling is
// confluent), on below- and above-threshold instances. Depths, an
// independent sequential sweep, is the oracle for the round labelling:
// an edge's round is the least depth among its endpoints, its free
// vertex the smallest endpoint at that depth, and a core edge has only
// core endpoints.
func TestParallelOrderMatchesParallel(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *hypergraph.Hypergraph
		k    int
	}{
		{"below-threshold", hypergraph.Uniform(60000, 42000, 3, rng.New(11)), 2},
		{"above-threshold", hypergraph.Uniform(40000, 36000, 3, rng.New(12)), 2},
		{"k3", hypergraph.Uniform(30000, 36000, 4, rng.New(13)), 3},
		{"partitioned", hypergraph.Partitioned(3*20000, 44000, 3, rng.New(14)), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := Parallel(tc.g, tc.k, Options{})
			ord := ParallelOrder(tc.g, tc.k, Options{})
			if ord.Rounds != want.Rounds || ord.CoreVertices != want.CoreVertices || ord.CoreEdges != want.CoreEdges {
				t.Fatalf("ordered peel diverged: got rounds=%d core=(%d,%d), want rounds=%d core=(%d,%d)",
					ord.Rounds, ord.CoreVertices, ord.CoreEdges, want.Rounds, want.CoreVertices, want.CoreEdges)
			}
			if !reflect.DeepEqual(ord.SurvivorHistory, want.SurvivorHistory) {
				t.Fatal("survivor history diverged from Parallel")
			}
			seq := Sequential(tc.g, tc.k)
			if !reflect.DeepEqual(ord.EdgeAlive, seq.EdgeAlive) || !reflect.DeepEqual(ord.VertexAlive, seq.VertexAlive) {
				t.Fatal("ordered peel removed a different set than Sequential (confluence violated)")
			}
			if err := CoreDegreesValid(tc.g, &ord.Result, tc.k); err != nil {
				t.Fatal(err)
			}
			if len(ord.PeelOrder)+ord.CoreEdges != tc.g.M {
				t.Fatalf("PeelOrder has %d edges + %d core != m=%d", len(ord.PeelOrder), ord.CoreEdges, tc.g.M)
			}
			depth := Depths(tc.g, tc.k)
			for e := 0; e < tc.g.M; e++ {
				vs := tc.g.EdgeVertices(e)
				if ord.RoundOf[e] == 0 {
					for _, u := range vs {
						if depth[u] != InCore {
							t.Fatalf("core edge %d has endpoint %d at depth %d", e, u, depth[u])
						}
					}
					continue
				}
				round := InCore
				for _, u := range vs {
					if depth[u] != InCore && (round == InCore || depth[u] < round) {
						round = depth[u]
					}
				}
				free := NoVertex
				for _, u := range vs {
					if depth[u] == round {
						free = min(free, u)
					}
				}
				if ord.RoundOf[e] != round || ord.FreeVertex[e] != free {
					t.Fatalf("edge %d: RoundOf %d, FreeVertex %d; Depths says %d, %d",
						e, ord.RoundOf[e], ord.FreeVertex[e], round, free)
				}
			}
		})
	}
}

// TestParallelOrderDeterministic is the bit-stability contract: the
// ordered peel returns identical PeelOrder, FreeVertex, RoundOf, and
// RoundStart at every worker count (1/3/8) and across repeated runs at
// the same count — scheduling and shard-drain order must not leak into
// the result.
func TestParallelOrderDeterministic(t *testing.T) {
	g := hypergraph.Uniform(80000, 60000, 3, rng.New(21))
	ref := ParallelOrder(g, 2, Options{})
	if !ref.Empty() {
		t.Fatal("instance unexpectedly above threshold")
	}
	check := func(name string, got *OrderedResult) {
		t.Helper()
		if !reflect.DeepEqual(got.PeelOrder, ref.PeelOrder) {
			t.Fatalf("%s: PeelOrder diverged", name)
		}
		if !reflect.DeepEqual(got.FreeVertex, ref.FreeVertex) {
			t.Fatalf("%s: FreeVertex diverged", name)
		}
		if !reflect.DeepEqual(got.RoundOf, ref.RoundOf) {
			t.Fatalf("%s: RoundOf diverged", name)
		}
		if !reflect.DeepEqual(got.RoundStart, ref.RoundStart) {
			t.Fatalf("%s: RoundStart diverged", name)
		}
	}
	for _, workers := range []int{1, 3, 8} {
		pool := parallel.NewPool(workers)
		check("workers=1st", ParallelOrder(g, 2, Options{Pool: pool}))
		check("workers=2nd", ParallelOrder(g, 2, Options{Pool: pool}))
		pool.Close()
	}
	// FullScan must agree with Frontier: the scan policy selects how
	// Phase A finds candidates, not what the process removes.
	check("fullscan", ParallelOrder(g, 2, Options{Scan: FullScan}))
}

// TestParallelOrderEliminationProperty is the property test: reverse
// round-major order is a valid elimination order at k = 2 — structural
// consistency plus the guarantee that a peeled edge's non-free
// endpoints finalize in strictly later rounds — across random sizes,
// densities, seeds, and both scan policies.
func TestParallelOrderEliminationProperty(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint16, fullScan bool) bool {
		n := int(nRaw%5000) + 10
		m := int(mRaw) % (n + n/2)
		g := hypergraph.Uniform(n, m, 3, rng.New(seed))
		opts := Options{}
		if fullScan {
			opts.Scan = FullScan
		}
		ord := ParallelOrder(g, 2, opts)
		if err := ValidateEliminationOrder(g, ord, 2); err != nil {
			t.Logf("n=%d m=%d seed=%d: %v", n, m, seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(31))}); err != nil {
		t.Error(err)
	}
}

// TestParallelOrderEdgeCases covers empty graphs, edgeless graphs, and
// fully-core graphs.
func TestParallelOrderEdgeCases(t *testing.T) {
	// No edges: the isolated vertices peel in one round (matching
	// Parallel), releasing nothing.
	g := hypergraph.FromEdges(10, 2, nil, 0)
	ord := ParallelOrder(g, 2, Options{})
	if !ord.Empty() || len(ord.PeelOrder) != 0 || ord.Rounds != 1 || len(ord.RoundStart) != 2 {
		t.Fatalf("edgeless graph: rounds=%d order=%d start=%v", ord.Rounds, len(ord.PeelOrder), ord.RoundStart)
	}
	// A 3-edge triangle-like system where every vertex has degree 2:
	// nothing peels at k=2, everything is core.
	edges := []uint32{0, 1, 1, 2, 2, 0}
	g = hypergraph.FromEdges(3, 2, edges, 0)
	ord = ParallelOrder(g, 2, Options{})
	if ord.Rounds != 0 || ord.CoreEdges != 3 || len(ord.PeelOrder) != 0 {
		t.Fatalf("full-core graph peeled: rounds=%d core=%d", ord.Rounds, ord.CoreEdges)
	}
	for e := range ord.FreeVertex {
		if ord.FreeVertex[e] != NoVertex || ord.RoundOf[e] != 0 {
			t.Fatal("core edge carries an orientation")
		}
	}
	if err := ValidateEliminationOrder(g, ord, 2); err != nil {
		t.Fatal(err)
	}
}

// TestParallelOrderMinClaim pins the deterministic tie-break: when two
// endpoints of an edge peel in the same round, the minimum vertex id
// frees the edge. A single degree-1–degree-1 edge makes both endpoints
// round-1 candidates.
func TestParallelOrderMinClaim(t *testing.T) {
	g := hypergraph.FromEdges(5, 2, []uint32{4, 2}, 0)
	ord := ParallelOrder(g, 2, Options{})
	if !ord.Empty() || len(ord.PeelOrder) != 1 {
		t.Fatalf("single edge did not peel: %+v", ord.Result)
	}
	if ord.FreeVertex[0] != 2 {
		t.Fatalf("FreeVertex = %d, want the minimum endpoint 2", ord.FreeVertex[0])
	}
	if ord.RoundOf[0] != 1 {
		t.Fatalf("RoundOf = %d, want 1", ord.RoundOf[0])
	}
}

// orderedPins hold pinHash of ParallelOrder's PeelOrder, FreeVertex,
// RoundOf and RoundStart (as int64s) on a Uniform graph of n = 6000
// vertices and c·n edges, seed 100+i for row i: r = 2, 3, 4 at k = 2
// and 3, one density below and one above the k-core threshold c*(k, r)
// each. They were recorded from the claim-pass peel that preceded the
// round labelling, equal at pools 1/2/3/8 under both scan policies.
var orderedPins = []struct {
	r, k int
	c    float64
	pins [4]string
}{
	{2, 2, 0.4, [4]string{"03c624c310a7ccc3", "22e21e4371e2b79e", "641013542972b8e0", "5ecf35cb4f030c64"}},
	{2, 2, 0.7, [4]string{"0ec893baae12de55", "9017145e11a7693a", "f8daab99477ba922", "b7b679aec582049a"}},
	{3, 2, 0.75, [4]string{"34e12d89f05e3714", "579d10b62697bd2d", "57a561a64e412562", "eecbcd4a400e7c5c"}},
	{3, 2, 0.9, [4]string{"eb3cea7e225922dd", "420a6a0a17c8a37e", "3f42764b7043b022", "8c62751c76dcac7a"}},
	{4, 2, 0.7, [4]string{"be0101ee3c9b97e1", "7886904efc6dac67", "eda5474e299c8e59", "6c21c988303ec652"}},
	{4, 2, 0.85, [4]string{"baafc1a2ce49abee", "e9a4973eabaec9d6", "1ac0e7f8c8056b0e", "9e07f84f61da4855"}},
	{2, 3, 1.5, [4]string{"8a2f5b5e422a0076", "10048da4b03b8836", "169d36ba420dd6a6", "a4d6019f6a513239"}},
	{2, 3, 1.85, [4]string{"4d4b0d6a5d5ae272", "762764f2f92f7f8e", "4bcc51e8e42186ba", "47b48d6406d2434e"}},
	{3, 3, 1.4, [4]string{"034914f5e8e45a36", "039859afec62dadf", "0e6090584bde07d9", "d7a5706d5b8177d2"}},
	{3, 3, 1.7, [4]string{"975ec921c8ff5810", "9ccc301dc6f8e11c", "cd072c1d67e77fb5", "acbcd6dc95914d73"}},
	{4, 3, 1.2, [4]string{"2e6c9d55c0f81864", "d0508f73755312c4", "6d11c11cdc10382c", "df9cdee8f78ea150"}},
	{4, 3, 1.45, [4]string{"1f5b9cfde9235f86", "5613f4eb3ce83d1c", "20e79e7247e3b38a", "1dd5e4dd2a48c103"}},
}

// TestParallelOrderPinned checks ParallelOrder's whole ordering output
// against orderedPins at pools 1/2/3/8 under both scan policies.
func TestParallelOrderPinned(t *testing.T) {
	const n = 6000
	for i, in := range orderedPins {
		g := hypergraph.Uniform(n, int(in.c*n), in.r, rng.New(uint64(100+i)))
		for _, workers := range []int{1, 2, 3, 8} {
			pool := parallel.NewPool(workers)
			for _, scan := range []ScanPolicy{Frontier, FullScan} {
				ord := ParallelOrder(g, in.k, Options{Scan: scan, Pool: pool})
				starts := make([]int64, len(ord.RoundStart))
				for j, s := range ord.RoundStart {
					starts[j] = int64(s)
				}
				got := [4]string{pinHash(ord.PeelOrder), pinHash(ord.FreeVertex), pinHash(ord.RoundOf), pinHash(starts)}
				if got != in.pins {
					t.Errorf("r=%d k=%d c=%v, %d workers, scan %d: hashes %q, want %q", in.r, in.k, in.c, workers, scan, got, in.pins)
				}
			}
			pool.Close()
		}
	}
}
