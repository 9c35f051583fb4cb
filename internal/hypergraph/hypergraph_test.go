package hypergraph

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/parallel"
	"repro/internal/poisson"
	"repro/internal/rng"
)

func TestUniformShape(t *testing.T) {
	g := Uniform(1000, 700, 4, rng.New(1))
	if g.N != 1000 || g.M != 700 || g.R != 4 {
		t.Fatalf("shape N=%d M=%d R=%d", g.N, g.M, g.R)
	}
	if len(g.Edges) != 700*4 {
		t.Fatalf("edge storage %d", len(g.Edges))
	}
	if g.SubtableSize != 0 {
		t.Fatal("uniform graph should be unpartitioned")
	}
}

func TestUniformEdgesDistinctVertices(t *testing.T) {
	g := Uniform(50, 500, 3, rng.New(2))
	for e := 0; e < g.M; e++ {
		vs := g.EdgeVertices(e)
		for i := 0; i < len(vs); i++ {
			if vs[i] >= 50 {
				t.Fatalf("edge %d vertex %d out of range", e, vs[i])
			}
			for j := i + 1; j < len(vs); j++ {
				if vs[i] == vs[j] {
					t.Fatalf("edge %d has duplicate vertex %d", e, vs[i])
				}
			}
		}
	}
}

func TestIncidenceConsistency(t *testing.T) {
	g := Uniform(300, 250, 4, rng.New(3))
	// Every (edge, vertex) incidence appears in both directions.
	for e := 0; e < g.M; e++ {
		for _, v := range g.EdgeVertices(e) {
			found := false
			for _, ie := range g.VertexEdges(int(v)) {
				if int(ie) == e {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge %d missing from vertex %d incidence", e, v)
			}
		}
	}
	// Total incidence size is m*r and degrees sum to it.
	total := 0
	for v := 0; v < g.N; v++ {
		total += g.Degree(v)
	}
	if total != g.M*g.R {
		t.Fatalf("degree sum %d, want %d", total, g.M*g.R)
	}
}

func TestDegreesMatchOffsets(t *testing.T) {
	g := Uniform(200, 150, 3, rng.New(4))
	d := g.Degrees()
	for v := 0; v < g.N; v++ {
		if int(d[v]) != g.Degree(v) {
			t.Fatalf("vertex %d: Degrees %d vs Degree %d", v, d[v], g.Degree(v))
		}
	}
}

func TestDegreeDistributionApproxPoisson(t *testing.T) {
	// In G^r_{n,cn} vertex degrees are Binomial(m, r/n) ~ Poisson(rc).
	// Compare the empirical histogram with the Poisson(rc) pmf.
	n, c, r := 200000, 0.7, 4
	g := Uniform(n, int(c*float64(n)), r, rng.New(5))
	hist := g.DegreeHistogram(12)
	mean := float64(r) * c
	for d := 0; d <= 8; d++ {
		want := poisson.PMF(d, mean) * float64(n)
		got := float64(hist[d])
		se := math.Sqrt(want) + 1
		if math.Abs(got-want) > 6*se {
			t.Errorf("degree %d: %v vertices, Poisson predicts %.0f +- %.0f", d, got, want, 6*se)
		}
	}
}

func TestBinomialEdgeCountConcentrates(t *testing.T) {
	n, c := 100000, 0.75
	var sum float64
	const trials = 20
	for i := 0; i < trials; i++ {
		g := Binomial(n, c, 3, rng.NewStream(6, uint64(i)))
		sum += float64(g.M)
	}
	mean := sum / trials
	want := c * float64(n)
	se := math.Sqrt(want / trials)
	if math.Abs(mean-want) > 6*se {
		t.Errorf("Binomial mean edges %.0f, want %.0f +- %.0f", mean, want, 6*se)
	}
}

func TestPartitionedStructure(t *testing.T) {
	n, m, r := 1200, 800, 4
	g := Partitioned(n, m, r, rng.New(7))
	if g.SubtableSize != n/r {
		t.Fatalf("SubtableSize = %d, want %d", g.SubtableSize, n/r)
	}
	for e := 0; e < m; e++ {
		vs := g.EdgeVertices(e)
		for j, v := range vs {
			if g.Subtable(v) != j {
				t.Fatalf("edge %d position %d: vertex %d in subtable %d", e, j, v, g.Subtable(v))
			}
		}
	}
}

func TestPartitionedRequiresDivisibility(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Partitioned(1001, ...) did not panic")
		}
	}()
	Partitioned(1001, 100, 4, rng.New(8))
}

func TestSubtablePanicsOnUnpartitioned(t *testing.T) {
	g := Uniform(100, 10, 3, rng.New(9))
	defer func() {
		if recover() == nil {
			t.Error("Subtable on unpartitioned graph did not panic")
		}
	}()
	g.Subtable(0)
}

func TestFromEdges(t *testing.T) {
	edges := []uint32{0, 1, 2, 2, 3, 4, 0, 3, 4}
	g := FromEdges(5, 3, edges, 0)
	if g.M != 3 {
		t.Fatalf("M = %d", g.M)
	}
	if g.Degree(0) != 2 || g.Degree(4) != 2 || g.Degree(1) != 1 {
		t.Fatalf("degrees wrong: %v", g.Degrees())
	}
}

func TestFromEdgesValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"bad length":    func() { FromEdges(5, 3, []uint32{0, 1}, 0) },
		"out of range":  func() { FromEdges(3, 3, []uint32{0, 1, 7}, 0) },
		"misplaced":     func() { FromEdges(6, 3, []uint32{0, 2, 4, 2, 0, 4}, 2) },
		"partition":     func() { FromEdges(7, 3, []uint32{0, 2, 4}, 2) },
		"bad arity":     func() { FromEdges(5, 1, []uint32{0}, 0) },
		"uniform n < r": func() { Uniform(2, 1, 3, rng.New(1)) },
		"negative m":    func() { Uniform(10, -1, 3, rng.New(1)) },
		"negative c":    func() { Binomial(10, -0.5, 3, rng.New(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestEdgeDensity(t *testing.T) {
	g := Uniform(1000, 700, 3, rng.New(10))
	if got := g.EdgeDensity(); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("EdgeDensity = %v", got)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := Uniform(1000, 700, 4, rng.New(42))
	b := Uniform(1000, 700, 4, rng.New(42))
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatal("same-seed graphs differ")
		}
	}
}

// equalGraphs fails the test unless a and b have identical Edges,
// Offsets, and Incidence arrays.
func equalGraphs(t *testing.T, label string, a, b *Hypergraph) {
	t.Helper()
	if a.N != b.N || a.M != b.M || a.R != b.R {
		t.Fatalf("%s: shape (%d,%d,%d) vs (%d,%d,%d)", label, a.N, a.M, a.R, b.N, b.M, b.R)
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("%s: Edges[%d] = %d vs %d", label, i, a.Edges[i], b.Edges[i])
		}
	}
	for i := range a.Offsets {
		if a.Offsets[i] != b.Offsets[i] {
			t.Fatalf("%s: Offsets[%d] = %d vs %d", label, i, a.Offsets[i], b.Offsets[i])
		}
	}
	for i := range a.Incidence {
		if a.Incidence[i] != b.Incidence[i] {
			t.Fatalf("%s: Incidence[%d] = %d vs %d", label, i, a.Incidence[i], b.Incidence[i])
		}
	}
}

// TestConstructionDeterministicAcrossWorkers is the contract of the
// parallel construction path: the same generator state yields
// bit-identical Edges, Offsets, and Incidence at every worker count.
// The sizes put m·r above seqBuildCutoff and m above genChunk, so the
// 3- and 8-worker pools genuinely run the parallel generation and the
// parallel counting sort while the 1-worker pool runs the sequential
// fallbacks.
func TestConstructionDeterministicAcrossWorkers(t *testing.T) {
	const n, m, r = 40000, 50000, 4
	if buildSpan(n, m, r, 8) < 2 {
		t.Fatal("test sizes too small to exercise the parallel CSR build")
	}
	type build struct {
		name string
		make func(gen *rng.RNG, pool *parallel.Pool) *Hypergraph
	}
	builds := []build{
		{"uniform", func(gen *rng.RNG, pool *parallel.Pool) *Hypergraph {
			return UniformWithPool(n, m, r, gen, pool)
		}},
		{"partitioned", func(gen *rng.RNG, pool *parallel.Pool) *Hypergraph {
			return PartitionedWithPool(n, m, r, gen, pool)
		}},
		{"binomial", func(gen *rng.RNG, pool *parallel.Pool) *Hypergraph {
			return BinomialWithPool(n, float64(m)/float64(n), r, gen, pool)
		}},
	}
	for _, bd := range builds {
		ref := bd.make(rng.New(99), parallel.NewPool(1))
		for _, workers := range []int{3, 8} {
			pool := parallel.NewPool(workers)
			got := bd.make(rng.New(99), pool)
			equalGraphs(t, fmt.Sprintf("%s workers=%d", bd.name, workers), ref, got)
			pool.Close()
		}
	}
}

// TestBuildSpanCaps pins the partition-sizing policy of the parallel
// counting sort: small graphs and sparse graphs (n ≫ m·r, where the
// O(span·n) histogram would dwarf the edge list) fall back to the
// sequential sort, every piece holds at least seqBuildCutoff
// incidences, and the histogram memory never exceeds 4× the incidence
// array no matter how wide the pool is.
func TestBuildSpanCaps(t *testing.T) {
	if s := buildSpan(1000, 100, 3, 8); s != 1 {
		t.Errorf("small graph: span %d, want 1", s)
	}
	if s := buildSpan(10_000_000, 40_000, 2, 8); s != 1 {
		t.Errorf("sparse graph: span %d, want 1 (histogram would be O(span*n))", s)
	}
	if s := buildSpan(1<<16, 1<<16, 4, 64); s != (1<<18)/seqBuildCutoff {
		t.Errorf("work cap: span %d, want %d", s, (1<<18)/seqBuildCutoff)
	}
	for _, workers := range []int{2, 8, 64, 512} {
		n, m, r := 1<<20, 3<<20, 4
		s := buildSpan(n, m, r, workers)
		if s > workers {
			t.Errorf("workers=%d: span %d exceeds pool width", workers, s)
		}
		if s*n > 4*m*r {
			t.Errorf("workers=%d: histogram %d entries exceeds 4x incidence %d", workers, s*n, 4*m*r)
		}
	}
}

// TestParallelCSRMatchesSequential checks the stable parallel counting
// sort against the sequential build on a shared explicit edge list.
func TestParallelCSRMatchesSequential(t *testing.T) {
	const n, m, r = 5000, 60000, 4
	if buildSpan(n, m, r, 8) < 3 {
		t.Fatal("test sizes too small to exercise a multi-piece CSR build")
	}
	gen := rng.New(123)
	edges := make([]uint32, m*r)
	var tuple [MaxArity]uint32
	for e := 0; e < m; e++ {
		gen.SampleDistinct(tuple[:r], uint32(n))
		copy(edges[e*r:], tuple[:r])
	}
	seq := FromEdgesWithPool(n, r, append([]uint32(nil), edges...), 0, parallel.NewPool(1))
	for _, workers := range []int{2, 5, 8} {
		pool := parallel.NewPool(workers)
		par := FromEdgesWithPool(n, r, append([]uint32(nil), edges...), 0, pool)
		equalGraphs(t, fmt.Sprintf("csr workers=%d", workers), seq, par)
		pool.Close()
	}
}

func TestIncidencePropertyQuick(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint16) bool {
		n := int(nRaw%500) + 5
		m := int(mRaw % 400)
		g := Uniform(n, m, 3, rng.New(seed))
		// CSR round trip: degree sum equals m*r and offsets monotone.
		total := 0
		for v := 0; v < g.N; v++ {
			if g.Offsets[v] > g.Offsets[v+1] {
				return false
			}
			total += g.Degree(v)
		}
		return total == m*3 && int(g.Offsets[g.N]) == m*3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkUniformGenerate(b *testing.B) {
	gen := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Uniform(1<<17, 90000, 4, gen)
	}
}

func BenchmarkPartitionedGenerate(b *testing.B) {
	gen := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Partitioned(1<<17, 90000, 4, gen)
	}
}
