package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/hypergraph"
	"repro/internal/parallel"
	"repro/internal/recurrence"
	"repro/internal/rng"
)

func uniformGraph(n, m, r int, seed uint64) *hypergraph.Hypergraph {
	return hypergraph.Uniform(n, m, r, rng.New(seed))
}

func TestSequentialEmptyCoreBelowThreshold(t *testing.T) {
	// c = 0.7 < c*_{2,4} ~ 0.772: the 2-core is empty w.h.p.
	g := uniformGraph(50000, 35000, 4, 1)
	res := Sequential(g, 2)
	if !res.Empty() {
		t.Errorf("2-core not empty below threshold: %d vertices, %d edges",
			res.CoreVertices, res.CoreEdges)
	}
	if len(res.PeelOrder) != g.M {
		t.Errorf("peel order has %d edges, want %d", len(res.PeelOrder), g.M)
	}
}

func TestSequentialNonEmptyCoreAboveThreshold(t *testing.T) {
	// c = 0.85 > c*: the 2-core contains ~0.775 n vertices (Table 2 limit).
	n := 100000
	g := uniformGraph(n, 85000, 4, 2)
	res := Sequential(g, 2)
	if res.Empty() {
		t.Fatal("2-core empty above threshold")
	}
	frac := float64(res.CoreVertices) / float64(n)
	if math.Abs(frac-0.775) > 0.01 {
		t.Errorf("core fraction %.4f, want ~0.775", frac)
	}
	if err := CoreDegreesValid(g, &res.Result, 2); err != nil {
		t.Error(err)
	}
}

func TestSequentialOrientation(t *testing.T) {
	g := uniformGraph(30000, 21000, 4, 3)
	res := Sequential(g, 2)
	if !res.Empty() {
		t.Skip("unlucky instance: non-empty core")
	}
	// Every edge peeled exactly once, assigned to a vertex; for k = 2 a
	// vertex frees at most one edge (it is removed at degree <= 1).
	seenEdge := make([]bool, g.M)
	count := make(map[uint32]int)
	for _, e := range res.PeelOrder {
		if seenEdge[e] {
			t.Fatalf("edge %d peeled twice", e)
		}
		seenEdge[e] = true
		v := res.FreeVertex[e]
		if v == NoVertex {
			t.Fatalf("peeled edge %d has no free vertex", e)
		}
		count[v]++
		if count[v] > 1 {
			t.Fatalf("vertex %d freed %d edges with k=2", v, count[v])
		}
		// The free vertex must be an endpoint of the edge.
		found := false
		for _, u := range g.EdgeVertices(int(e)) {
			if u == v {
				found = true
			}
		}
		if !found {
			t.Fatalf("free vertex %d not an endpoint of edge %d", v, e)
		}
	}
}

func TestSequentialOrientationHigherK(t *testing.T) {
	// For general k each vertex frees at most k-1 edges.
	g := uniformGraph(20000, 24000, 3, 4) // c = 1.2 < c*_{3,3} ~ 1.553
	k := 3
	res := Sequential(g, k)
	if !res.Empty() {
		t.Skip("unlucky instance: non-empty core")
	}
	count := make(map[uint32]int)
	for _, e := range res.PeelOrder {
		count[res.FreeVertex[e]]++
	}
	for v, c := range count {
		if c > k-1 {
			t.Fatalf("vertex %d freed %d edges, max k-1 = %d", v, c, k-1)
		}
	}
}

// TestEnginesAgreeOnCore is the k-core uniqueness oracle: peeling is
// confluent, so every engine leaves Sequential's core, on partitioned
// instances below and above the threshold, at pools 1/2/3/8 under both
// scan policies. The plain-round peels (Parallel, ParallelOrder) agree
// on one round count and survivor history, and so do the Appendix B
// peels (Subtables, and PeelKeys on the r = 3, k = 2 instances, whose
// key i hashes to edge i). The orderings pass ValidateEliminationOrder
// at k = 2, and PeelKeys has one segment per subround.
func TestEnginesAgreeOnCore(t *testing.T) {
	for i, cfg := range []struct {
		n, r, k int
		c       float64
		above   bool
	}{
		{24000, 3, 2, 0.75, false},
		{24000, 3, 2, 0.9, true},
		{24000, 4, 2, 0.7, false},
		{24000, 4, 2, 0.85, true},
		{24000, 3, 3, 1.4, false},
		{24000, 3, 3, 1.7, true},
		{12000, 2, 3, 1.4, false}, // graph case r=2, k=3
		{12000, 2, 3, 1.9, true},
	} {
		g := partitionedGraph(cfg.n, int(cfg.c*float64(cfg.n)), cfg.r, uint64(40+i))
		seq := Sequential(g, cfg.k)
		if seq.Empty() == cfg.above {
			t.Fatalf("cfg %+v: Sequential core (%d, %d) on the wrong side of the threshold", cfg, seq.CoreVertices, seq.CoreEdges)
		}
		if err := CoreDegreesValid(g, &seq.Result, cfg.k); err != nil {
			t.Fatalf("cfg %+v: Sequential: %v", cfg, err)
		}
		var plain, sub *Result // the first plain-round and Appendix B results
		check := func(name string, res *Result, ref **Result) {
			t.Helper()
			name = fmt.Sprintf("cfg %+v: %s", cfg, name)
			if res.CoreVertices != seq.CoreVertices || res.CoreEdges != seq.CoreEdges ||
				!reflect.DeepEqual(res.VertexAlive, seq.VertexAlive) || !reflect.DeepEqual(res.EdgeAlive, seq.EdgeAlive) {
				t.Fatalf("%s: core (%d, %d) differs from Sequential's (%d, %d)", name,
					res.CoreVertices, res.CoreEdges, seq.CoreVertices, seq.CoreEdges)
			}
			if err := CoreDegreesValid(g, res, cfg.k); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if *ref == nil {
				*ref = res
			}
			if res.Rounds != (*ref).Rounds || res.Subrounds != (*ref).Subrounds ||
				!reflect.DeepEqual(res.SurvivorHistory, (*ref).SurvivorHistory) {
				t.Fatalf("%s: rounds/subrounds %d/%d, want %d/%d (history equal: %v)", name,
					res.Rounds, res.Subrounds, (*ref).Rounds, (*ref).Subrounds,
					reflect.DeepEqual(res.SurvivorHistory, (*ref).SurvivorHistory))
			}
		}
		validate := func(name string, ord *OrderedResult) {
			t.Helper()
			if cfg.k != 2 {
				return // the elimination property is a theorem only at k = 2
			}
			if err := ValidateEliminationOrder(g, ord, 2); err != nil {
				t.Fatalf("cfg %+v: %s: %v", cfg, name, err)
			}
		}
		for _, workers := range []int{1, 2, 3, 8} {
			pool := parallel.NewPool(workers)
			for _, scan := range []ScanPolicy{Frontier, FullScan} {
				opts := Options{Scan: scan, Pool: pool}
				at := fmt.Sprintf("%d workers, scan %d", workers, scan)
				check("Parallel, "+at, Parallel(g, cfg.k, opts), &plain)
				ord := ParallelOrder(g, cfg.k, opts)
				check("ParallelOrder, "+at, &ord.Result, &plain)
				validate("ParallelOrder, "+at, ord)
				check("Subtables, "+at, Subtables(g, cfg.k, opts), &sub)
			}
			if cfg.r == 3 && cfg.k == 2 {
				keys := make([]uint64, g.M)
				for e := range keys {
					keys[e] = uint64(e)
				}
				hash := func(keys []uint64, edges []uint32) {
					for i, x := range keys {
						copy(edges[3*i:3*i+3], g.EdgeVertices(int(x)))
					}
				}
				edges, peel, err := PeelKeys(context.Background(), keys, g.SubtableSize, hash, pool)
				if err != nil {
					t.Fatal(err)
				}
				ord := peel.Ordered(edges)
				at := fmt.Sprintf("PeelKeys, %d workers", workers)
				check(at, &ord.Result, &sub)
				if ord.Segments() != ord.Subrounds {
					t.Fatalf("cfg %+v: %s: %d segments, want one per subround (%d)", cfg, at, ord.Segments(), ord.Subrounds)
				}
				validate(at, ord)
			}
			pool.Close()
		}
	}
}

func TestParallelMatchesSequentialCore(t *testing.T) {
	for _, cfg := range []struct {
		n, m, r, k int
		seed       uint64
	}{
		{20000, 14000, 4, 2, 10}, // below threshold
		{20000, 17000, 4, 2, 11}, // above threshold
		{20000, 26000, 3, 3, 12}, // k=3 below
		{20000, 34000, 3, 3, 13}, // k=3 above
		{5000, 4000, 2, 3, 14},   // graph case r=2, k=3
	} {
		g := uniformGraph(cfg.n, cfg.m, cfg.r, cfg.seed)
		seq := Sequential(g, cfg.k)
		for _, scan := range []ScanPolicy{Frontier, FullScan} {
			par := Parallel(g, cfg.k, Options{Scan: scan})
			if par.CoreVertices != seq.CoreVertices || par.CoreEdges != seq.CoreEdges {
				t.Errorf("cfg %+v scan %v: parallel core (%d,%d) != sequential (%d,%d)",
					cfg, scan, par.CoreVertices, par.CoreEdges, seq.CoreVertices, seq.CoreEdges)
			}
			for v := 0; v < g.N; v++ {
				if par.VertexAlive[v] != seq.VertexAlive[v] {
					t.Fatalf("cfg %+v scan %v: vertex %d alive mismatch", cfg, scan, v)
				}
			}
			for e := 0; e < g.M; e++ {
				if par.EdgeAlive[e] != seq.EdgeAlive[e] {
					t.Fatalf("cfg %+v scan %v: edge %d alive mismatch", cfg, scan, e)
				}
			}
			if err := CoreDegreesValid(g, par, cfg.k); err != nil {
				t.Errorf("cfg %+v scan %v: %v", cfg, scan, err)
			}
		}
	}
}

func TestScanPoliciesAgreeOnRounds(t *testing.T) {
	g := uniformGraph(50000, 35000, 4, 20)
	a := Parallel(g, 2, Options{Scan: Frontier})
	b := Parallel(g, 2, Options{Scan: FullScan})
	if a.Rounds != b.Rounds {
		t.Errorf("frontier rounds %d != full-scan rounds %d", a.Rounds, b.Rounds)
	}
	if len(a.SurvivorHistory) != len(b.SurvivorHistory) {
		t.Fatalf("history lengths differ: %d vs %d", len(a.SurvivorHistory), len(b.SurvivorHistory))
	}
	for i := range a.SurvivorHistory {
		if a.SurvivorHistory[i] != b.SurvivorHistory[i] {
			t.Errorf("round %d: survivors %d vs %d", i+1, a.SurvivorHistory[i], b.SurvivorHistory[i])
		}
	}
}

// TestFrontierWorkBound is the work oracle of the core peels. On the
// kernel's default seed a Frontier vertex is listed once at the start
// and again at most once for each removal of one of its edges by
// another endpoint, so Parallel hands out at most N + (R−1)·M
// candidates, within the N + R·M work bound. Subtables lists a vertex
// once, when its degree is first below k, so it hands out exactly
// N − CoreVertices. FullScan hands out N per round run, the final
// silent round included.
func TestFrontierWorkBound(t *testing.T) {
	pool := parallel.NewPool(3)
	defer pool.Close()
	for _, c := range []float64{0.7, 0.85} {
		const n = 30000
		m := int(c * n)
		plain, parts := uniformGraph(n, m, 3, 41), partitionedGraph(n, m, 3, 42)
		for _, tc := range []struct {
			name string
			g    *hypergraph.Hypergraph
			run  func(Options) *Result
		}{
			{"Parallel", plain, func(o Options) *Result { return Parallel(plain, 2, o) }},
			{"Subtables", parts, func(o Options) *Result { return Subtables(parts, 2, o) }},
		} {
			res, bound := tc.run(Options{Pool: pool}), n+(tc.g.R-1)*m
			if res.Candidates > bound {
				t.Errorf("%s c=%v Frontier: %d candidates, bound %d", tc.name, c, res.Candidates, bound)
			}
			if tc.name == "Subtables" && res.Candidates != n-res.CoreVertices {
				t.Errorf("Subtables c=%v Frontier: %d candidates, want n − core vertices = %d − %d",
					c, res.Candidates, n, res.CoreVertices)
			}
			if res := tc.run(Options{Scan: FullScan, Pool: pool}); res.Candidates != n*(res.Rounds+1) {
				t.Errorf("%s c=%v FullScan: %d candidates over %d+1 rounds of %d", tc.name, c, res.Candidates, res.Rounds, n)
			}
		}
	}
}

// TestPendingBitsAtPartEdges runs Parallel, whose kernel has one part of
// n vertices, at n = 1, 63, 64, 65 and 127, so that the pending bits end
// inside a word, at its end, or one or 63 vertices past it. Under
// Frontier the peel must agree with FullScan and Sequential at pools of
// 1, 2, 3 and 8 workers, and stay within the work bound N + (R−1)·M,
// which a lost pending bit would break by listing a vertex twice.
func TestPendingBitsAtPartEdges(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		pool := parallel.NewPool(workers)
		for _, n := range []int{1, 63, 64, 65, 127} {
			for _, c := range []float64{0.7, 0.9} {
				for seed := uint64(1); seed <= 4; seed++ {
					g := hypergraph.FromEdges(1, 2, nil, 0)
					if n > 1 {
						g = uniformGraph(n, int(c*float64(n)), 3, seed+uint64(n))
					}
					seq := Sequential(g, 2)
					front := Parallel(g, 2, Options{Pool: pool})
					full := Parallel(g, 2, Options{Scan: FullScan, Pool: pool})
					if !reflect.DeepEqual(front.VertexAlive, seq.VertexAlive) || !reflect.DeepEqual(front.EdgeAlive, seq.EdgeAlive) ||
						!reflect.DeepEqual(full.VertexAlive, seq.VertexAlive) {
						t.Errorf("W=%d n=%d c=%v seed %d: core differs from Sequential", workers, n, c, seed)
					}
					if front.Rounds != full.Rounds || !reflect.DeepEqual(front.SurvivorHistory, full.SurvivorHistory) {
						t.Errorf("W=%d n=%d c=%v seed %d: Frontier history %v, FullScan %v",
							workers, n, c, seed, front.SurvivorHistory, full.SurvivorHistory)
					}
					if bound := g.N + (g.R-1)*g.M; front.Candidates > bound {
						t.Errorf("W=%d n=%d c=%v seed %d: %d candidates, bound %d", workers, n, c, seed, front.Candidates, bound)
					}
				}
			}
		}
		pool.Close()
	}
}

func TestParallelDeterministic(t *testing.T) {
	g := uniformGraph(30000, 21000, 4, 21)
	a := Parallel(g, 2, Options{})
	b := Parallel(g, 2, Options{})
	if a.Rounds != b.Rounds || a.CoreVertices != b.CoreVertices {
		t.Errorf("two runs on the same graph disagree: rounds %d/%d cores %d/%d",
			a.Rounds, b.Rounds, a.CoreVertices, b.CoreVertices)
	}
	for i := range a.SurvivorHistory {
		if a.SurvivorHistory[i] != b.SurvivorHistory[i] {
			t.Fatalf("round %d: survivor history differs across runs", i+1)
		}
	}
}

func TestParallelRoundsMatchTable1(t *testing.T) {
	// Table 1: r=4, k=2, c=0.7 converges to 13 rounds (12.983 at n=160k).
	g := uniformGraph(160000, 112000, 4, 22)
	res := Parallel(g, 2, Options{})
	if !res.Empty() {
		t.Fatal("peeling failed below threshold")
	}
	if res.Rounds < 12 || res.Rounds > 14 {
		t.Errorf("rounds = %d, want ~13 (Table 1)", res.Rounds)
	}
}

func TestParallelSurvivorsMatchRecurrence(t *testing.T) {
	// Table 2 reproduction at reduced n: survivors after round t should
	// track λ_t·n within sampling noise for both regimes.
	n := 200000
	for _, c := range []float64{0.7, 0.85} {
		g := uniformGraph(n, int(c*float64(n)), 4, 23)
		res := Parallel(g, 2, Options{})
		pred, err := recurrence.Params{K: 2, R: 4, C: c}.Trace(res.Rounds)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < res.Rounds && i < 8; i++ {
			want := pred[i].Lambda * float64(n)
			got := float64(res.SurvivorHistory[i])
			// Tolerance: martingale concentration gives O(sqrt(n) polylog)
			// fluctuations; 6 sigma with sigma ~ sqrt(n) plus 0.5% slack.
			tol := 6*math.Sqrt(float64(n)) + 0.005*want
			if math.Abs(got-want) > tol {
				t.Errorf("c=%v round %d: survivors %v, recurrence predicts %.0f (tol %.0f)",
					c, i+1, got, want, tol)
			}
		}
	}
}

func TestParallelRoundGrowthRegimes(t *testing.T) {
	// The Theorem 1 vs Theorem 3 signature is in the *growth* with n:
	// below the threshold rounds are essentially flat (log log n), above
	// it they grow like log n. Table 1: from n=40000 to n=640000 the
	// c=0.85 column climbs ~13 -> ~17.3 while c=0.7 stays ~12.8 -> 13.0.
	nSmall, nLarge := 40000, 640000
	rounds := func(c float64, n int, seed uint64) int {
		res := Parallel(uniformGraph(n, int(c*float64(n)), 4, seed), 2, Options{})
		return res.Rounds
	}
	belowDelta := rounds(0.7, nLarge, 24) - rounds(0.7, nSmall, 25)
	aboveDelta := rounds(0.85, nLarge, 26) - rounds(0.85, nSmall, 27)
	if belowDelta > 1 {
		t.Errorf("below threshold: rounds grew by %d over 16x n, want <= 1", belowDelta)
	}
	if aboveDelta < 2 {
		t.Errorf("above threshold: rounds grew by %d over 16x n, want >= 2 (log n growth)", aboveDelta)
	}
}

func TestSurvivorHistoryMonotone(t *testing.T) {
	g := uniformGraph(50000, 40000, 4, 26)
	res := Parallel(g, 2, Options{})
	prev := g.N
	for i, s := range res.SurvivorHistory {
		if s > prev || s < res.CoreVertices {
			t.Fatalf("round %d: survivors %d not in [%d, %d]", i+1, s, res.CoreVertices, prev)
		}
		prev = s
	}
	if len(res.SurvivorHistory) > 0 && res.SurvivorHistory[len(res.SurvivorHistory)-1] != res.CoreVertices {
		t.Errorf("final history entry %d != core size %d",
			res.SurvivorHistory[len(res.SurvivorHistory)-1], res.CoreVertices)
	}
}

func TestEmptyGraphAndNoEdges(t *testing.T) {
	// m = 0: every vertex is isolated and is removed in round 1.
	g := hypergraph.Uniform(100, 0, 3, rng.New(27))
	res := Parallel(g, 2, Options{})
	if !res.Empty() || res.Rounds != 1 {
		t.Errorf("m=0: rounds %d, core (%d,%d); want 1 round, empty",
			res.Rounds, res.CoreVertices, res.CoreEdges)
	}
	seq := Sequential(g, 2)
	if !seq.Empty() {
		t.Error("sequential failed on edgeless graph")
	}
}

func TestKOne(t *testing.T) {
	// k = 1 removes only isolated vertices; every edge survives.
	g := uniformGraph(1000, 700, 3, 28)
	res := Parallel(g, 1, Options{})
	if res.CoreEdges != g.M {
		t.Errorf("k=1 removed %d edges", g.M-res.CoreEdges)
	}
	touched := 0
	for v := 0; v < g.N; v++ {
		if g.Degree(v) > 0 {
			touched++
		}
	}
	if res.CoreVertices != touched {
		t.Errorf("k=1 core vertices %d, want %d touched", res.CoreVertices, touched)
	}
}

func TestBadKPanics(t *testing.T) {
	g := uniformGraph(100, 50, 3, 29)
	defer func() {
		if recover() == nil {
			t.Error("k=0 did not panic")
		}
	}()
	Parallel(g, 0, Options{})
}

func TestMaxRoundsCap(t *testing.T) {
	g := uniformGraph(50000, 35000, 4, 30)
	res := Parallel(g, 2, Options{MaxRounds: 3})
	if res.Rounds > 3 {
		t.Errorf("rounds %d exceeded cap 3", res.Rounds)
	}
	if res.Empty() {
		t.Error("peeling should not complete in 3 rounds at this size")
	}
}

func TestConfluenceQuick(t *testing.T) {
	// Property: on arbitrary random graphs, sequential and parallel
	// peeling (both scans) leave identical cores for every k.
	f := func(seed uint64, nRaw, mRaw uint16, kRaw uint8) bool {
		n := int(nRaw%300) + 10
		m := int(mRaw % 500)
		k := int(kRaw%4) + 1
		g := hypergraph.Uniform(n, m, 3, rng.New(seed))
		seq := Sequential(g, k)
		par := Parallel(g, k, Options{Scan: Frontier})
		full := Parallel(g, k, Options{Scan: FullScan})
		if seq.CoreVertices != par.CoreVertices || par.CoreVertices != full.CoreVertices {
			return false
		}
		for v := 0; v < n; v++ {
			if seq.VertexAlive[v] != par.VertexAlive[v] || par.VertexAlive[v] != full.VertexAlive[v] {
				return false
			}
		}
		return CoreDegreesValid(g, &seq.Result, k) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSequentialPeel(b *testing.B) {
	g := uniformGraph(1<<18, 180000, 4, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Sequential(g, 2)
	}
}

func BenchmarkParallelPeelFrontier(b *testing.B) {
	g := uniformGraph(1<<18, 180000, 4, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Parallel(g, 2, Options{Scan: Frontier})
	}
}

func BenchmarkParallelPeelFullScan(b *testing.B) {
	g := uniformGraph(1<<18, 180000, 4, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Parallel(g, 2, Options{Scan: FullScan})
	}
}
