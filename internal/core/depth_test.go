package core

import (
	"testing"
	"testing/quick"

	"repro/internal/hypergraph"
	"repro/internal/parallel"
	"repro/internal/rng"
)

func TestDepthsMatchParallelRounds(t *testing.T) {
	g := uniformGraph(60000, 42000, 4, 60)
	par := Parallel(g, 2, Options{})
	depth := Depths(g, 2)

	maxDepth := int32(0)
	counts := map[int32]int{}
	for v := 0; v < g.N; v++ {
		d := depth[v]
		if d == InCore {
			if par.VertexAlive[v] == 0 {
				t.Fatalf("vertex %d: depth says core, parallel says peeled", v)
			}
			continue
		}
		if par.VertexAlive[v] != 0 {
			t.Fatalf("vertex %d: depth %d but parallel says core", v, d)
		}
		counts[d]++
		if d > maxDepth {
			maxDepth = d
		}
	}
	if int(maxDepth) != par.Rounds {
		t.Errorf("max depth %d != parallel rounds %d", maxDepth, par.Rounds)
	}
	// Survivor history refinement: survivors after round t = n minus all
	// vertices of depth <= t.
	removed := 0
	for tr := 1; tr <= par.Rounds; tr++ {
		removed += counts[int32(tr)]
		if want := g.N - removed; par.SurvivorHistory[tr-1] != want {
			t.Errorf("round %d: survivors %d, depth histogram implies %d",
				tr, par.SurvivorHistory[tr-1], want)
		}
	}
}

func TestDepthsAboveThreshold(t *testing.T) {
	g := uniformGraph(40000, 34000, 4, 61)
	depth := Depths(g, 2)
	seq := Sequential(g, 2)
	for v := 0; v < g.N; v++ {
		inCore := depth[v] == InCore
		if inCore != (seq.VertexAlive[v] != 0) {
			t.Fatalf("vertex %d: depth/core disagreement", v)
		}
	}
}

func TestDepthsQuickAgainstParallel(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint16, kRaw uint8) bool {
		n := int(nRaw%300) + 10
		m := int(mRaw % 400)
		k := int(kRaw%3) + 1
		g := hypergraph.Uniform(n, m, 3, rng.New(seed))
		depth := Depths(g, k)
		par := Parallel(g, k, Options{})
		maxD := 0
		for v := 0; v < n; v++ {
			if (depth[v] == InCore) != (par.VertexAlive[v] != 0) {
				return false
			}
			if int(depth[v]) > maxD {
				maxD = int(depth[v])
			}
		}
		return maxD == par.Rounds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCorenessCrossCheck(t *testing.T) {
	// Coreness[v] >= k iff v survives Peel(g, k), for every relevant k.
	g := uniformGraph(8000, 9600, 3, 62) // c = 1.2, rich core structure
	coreness := Coreness(g)
	maxC := int32(0)
	for _, c := range coreness {
		if c > maxC {
			maxC = c
		}
	}
	for k := 1; k <= int(maxC)+1; k++ {
		res := Sequential(g, k)
		for v := 0; v < g.N; v++ {
			inKCore := res.VertexAlive[v] != 0
			if inKCore != (coreness[v] >= int32(k)) {
				t.Fatalf("k=%d vertex %d: coreness %d but in-core=%v",
					k, v, coreness[v], inKCore)
			}
		}
	}
}

func TestCorenessIsolatedAndSimple(t *testing.T) {
	// Hand graph: one triangle-ish hyperedge set plus isolated vertices.
	edges := []uint32{0, 1, 2, 0, 1, 3, 0, 2, 3, 1, 2, 3} // K4 as 3-uniform
	g := hypergraph.FromEdges(6, 3, edges, 0)
	coreness := Coreness(g)
	for v := 0; v < 4; v++ {
		if coreness[v] != 3 {
			t.Errorf("vertex %d coreness %d, want 3", v, coreness[v])
		}
	}
	for v := 4; v < 6; v++ {
		if coreness[v] != 0 {
			t.Errorf("isolated vertex %d coreness %d, want 0", v, coreness[v])
		}
	}
}

func TestCorenessQuick(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint16) bool {
		n := int(nRaw%200) + 10
		m := int(mRaw % 400)
		g := hypergraph.Uniform(n, m, 3, rng.New(seed))
		coreness := Coreness(g)
		// Check against direct peeling at k = 2 and k = 3.
		for _, k := range []int{2, 3} {
			res := Sequential(g, k)
			for v := 0; v < n; v++ {
				if (res.VertexAlive[v] != 0) != (coreness[v] >= int32(k)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestSubtableFullScanAgrees(t *testing.T) {
	g := partitionedGraph(60000, 42000, 4, 63)
	for _, workers := range []int{1, 2, 3, 8} {
		pool := parallel.NewPool(workers)
		a := Subtables(g, 2, Options{Scan: Frontier, Pool: pool})
		b := Subtables(g, 2, Options{Scan: FullScan, Pool: pool})
		pool.Close()
		if a.Subrounds != b.Subrounds || a.Rounds != b.Rounds {
			t.Errorf("W=%d: scan policies disagree: subrounds %d/%d rounds %d/%d",
				workers, a.Subrounds, b.Subrounds, a.Rounds, b.Rounds)
		}
		if a.CoreVertices != b.CoreVertices {
			t.Errorf("W=%d: cores differ: %d vs %d", workers, a.CoreVertices, b.CoreVertices)
		}
		for i := range a.SurvivorHistory {
			if a.SurvivorHistory[i] != b.SurvivorHistory[i] {
				t.Fatalf("W=%d subround %d: histories differ", workers, i+1)
			}
		}
	}
}

func TestDuplicateEdgesHandled(t *testing.T) {
	// Two identical edges make their vertices degree-2, forming a 2-core
	// (the duplicate-edge caveat in the paper's Section 3.2.2 remark).
	edges := []uint32{0, 1, 2, 0, 1, 2, 3, 4, 5}
	g := hypergraph.FromEdges(6, 3, edges, 0)
	seq := Sequential(g, 2)
	if seq.Empty() {
		t.Fatal("duplicate edges should form a 2-core")
	}
	if seq.CoreVertices != 3 || seq.CoreEdges != 2 {
		t.Errorf("core (%d,%d), want (3,2)", seq.CoreVertices, seq.CoreEdges)
	}
	par := Parallel(g, 2, Options{})
	if par.CoreVertices != 3 || par.CoreEdges != 2 {
		t.Errorf("parallel core (%d,%d), want (3,2)", par.CoreVertices, par.CoreEdges)
	}
}

func BenchmarkDepths(b *testing.B) {
	g := uniformGraph(1<<18, 180000, 4, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Depths(g, 2)
	}
}

func BenchmarkCoreness(b *testing.B) {
	g := uniformGraph(1<<16, 80000, 3, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Coreness(g)
	}
}
