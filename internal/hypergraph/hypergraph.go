// Package hypergraph provides the random r-uniform hypergraph models that
// the peeling experiments of Jiang, Mitzenmacher, and Thaler (SPAA 2014)
// run on, together with a compact CSR incidence representation that the
// peelers iterate over.
//
// Three generators are provided:
//
//   - Uniform: the paper's G^r_{n,cn} model — exactly m = cn edges, each
//     an independently chosen set of r distinct vertices.
//   - Binomial: the paper's G^r_c model — every possible edge appears
//     independently with probability q = cn/C(n,r). The edge count is then
//     Binomial(C(n,r), q), which for the sparse regime used throughout the
//     paper is within total-variation distance O((cn)²/C(n,r)) of
//     Poisson(cn); we sample the count from Poisson(cn) and then draw that
//     many independent edges, which realizes the model up to that
//     vanishing distance (Le Cam; see internal/poisson).
//   - Partitioned: the Appendix B / IBLT model — vertices split into r
//     equal subtables, each edge containing exactly one vertex per
//     subtable.
//
// Construction is parallel end-to-end — edge sampling fans chunk-keyed
// RNG streams out over a worker pool, and the CSR index is built with a
// stable parallel counting sort — yet deterministic: a given generator
// state produces the same graph for every worker count. Uniform,
// Binomial, Partitioned and FromEdges run on the process-wide default
// pool; each has a ...WithPool form that takes an explicit one.
package hypergraph

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/rng"
)

// MaxArity bounds the edge arity r. Eight covers every configuration in
// the paper (r <= 5) with headroom, and keeps scratch tuples on the stack.
const MaxArity = 8

// Hypergraph is an immutable r-uniform hypergraph with a CSR incidence
// index. Vertices are 0..N-1; edges are 0..M-1. Edge e's vertices are
// Edges[e*R : e*R+R].
type Hypergraph struct {
	N int // number of vertices
	M int // number of edges
	R int // vertices per edge (arity)

	// Edges holds the vertex ids of each edge, flattened: edge e occupies
	// Edges[e*R : (e+1)*R]. In partitioned graphs, position j of each edge
	// lies in subtable j.
	Edges []uint32

	// Offsets/Incidence form the CSR index: the edges incident to vertex v
	// are Incidence[Offsets[v]:Offsets[v+1]]. A vertex appearing twice in
	// one edge (impossible for Uniform/Partitioned, which draw distinct
	// vertices) would be listed once per appearance.
	Offsets   []uint32
	Incidence []uint32

	// SubtableSize is N/R for partitioned graphs (vertex v belongs to
	// subtable v/SubtableSize); 0 for unpartitioned graphs.
	SubtableSize int
}

// EdgeVertices returns the vertex slice of edge e (aliasing internal
// storage; callers must not modify it).
func (g *Hypergraph) EdgeVertices(e int) []uint32 {
	return g.Edges[e*g.R : e*g.R+g.R]
}

// VertexEdges returns the edge ids incident to vertex v (aliasing internal
// storage; callers must not modify it).
func (g *Hypergraph) VertexEdges(v int) []uint32 {
	return g.Incidence[g.Offsets[v]:g.Offsets[v+1]]
}

// Degree returns the degree of vertex v (with multiplicity for repeated
// incidence, which the provided generators never produce).
func (g *Hypergraph) Degree(v int) int {
	return int(g.Offsets[v+1] - g.Offsets[v])
}

// Degrees returns a freshly allocated degree array.
func (g *Hypergraph) Degrees() []int32 {
	d := make([]int32, g.N)
	for v := 0; v < g.N; v++ {
		d[v] = int32(g.Offsets[v+1] - g.Offsets[v])
	}
	return d
}

// Subtable returns the subtable index of vertex v for partitioned graphs.
// It panics on unpartitioned graphs.
func (g *Hypergraph) Subtable(v uint32) int {
	if g.SubtableSize == 0 {
		panic("hypergraph: Subtable on unpartitioned graph")
	}
	return int(v) / g.SubtableSize
}

// EdgeDensity returns c = M/N.
func (g *Hypergraph) EdgeDensity() float64 {
	if g.N == 0 {
		return 0
	}
	return float64(g.M) / float64(g.N)
}

// validate is the shared generator guard. Panics if r is outside
// [2, MaxArity], n is smaller than r, or m is negative — configuration
// bugs in the caller, not data-dependent conditions.
func validate(n, m, r int) {
	if r < 2 || r > MaxArity {
		panic(fmt.Sprintf("hypergraph: arity %d outside [2, %d]", r, MaxArity))
	}
	if n < r {
		panic(fmt.Sprintf("hypergraph: n=%d smaller than arity %d", n, r))
	}
	if m < 0 {
		panic("hypergraph: negative edge count")
	}
}

// genChunk is the number of edges drawn from one RNG stream during
// generation. Edge chunk c samples from rng.NewStream(base, c), so the
// edge array is a pure function of the derived base seed and the chunk
// size — never of the worker count or chunk scheduling. The value trades
// stream-setup cost (one xoshiro seeding per 4096 edges) against load
// balance; it is a determinism-affecting constant: changing it changes
// which graph a seed denotes.
const genChunk = 4096

// Uniform generates the G^r_{n,m} model: m edges, each a uniformly chosen
// r-subset of [0, n), drawn independently (edges may repeat, matching the
// paper's hashing applications where two items can hash identically).
// Generation and the CSR build run on the process-wide default pool; the
// result depends only on gen's state, not on the pool size.
//
//peelvet:deterministic
func Uniform(n, m, r int, gen *rng.RNG) *Hypergraph {
	return UniformWithPool(n, m, r, gen, parallel.Default())
}

// UniformWithPool is Uniform on an explicit worker pool.
//
//peelvet:deterministic
func UniformWithPool(n, m, r int, gen *rng.RNG, pool *parallel.Pool) *Hypergraph {
	validate(n, m, r)
	g := &Hypergraph{N: n, M: m, R: r, Edges: make([]uint32, m*r)}
	base := gen.DeriveSeed()
	forEdgeChunks(pool, base, m, func(cg *rng.RNG, lo, hi int) {
		var tuple [MaxArity]uint32
		for e := lo; e < hi; e++ {
			cg.SampleDistinct(tuple[:r], uint32(n))
			copy(g.Edges[e*r:], tuple[:r])
		}
	})
	g.buildIncidence(pool)
	return g
}

// Binomial generates the G^r_c model on n vertices with edge density c:
// the number of edges is Poisson(cn) (the sparse-regime limit of
// Binomial(C(n,r), cn/C(n,r))), and each edge is an independent uniform
// r-subset.
func Binomial(n int, c float64, r int, gen *rng.RNG) *Hypergraph {
	return BinomialWithPool(n, c, r, gen, parallel.Default())
}

// BinomialWithPool is Binomial on an explicit worker pool. Panics if the
// edge density c is negative.
func BinomialWithPool(n int, c float64, r int, gen *rng.RNG, pool *parallel.Pool) *Hypergraph {
	if c < 0 {
		panic("hypergraph: negative edge density")
	}
	m := gen.Poisson(c * float64(n))
	return UniformWithPool(n, m, r, gen, pool)
}

// Partitioned generates the Appendix B model: n vertices split into r
// subtables of n/r (n must be divisible by r), and m edges each containing
// exactly one uniform vertex from every subtable. Position j of each edge
// lies in subtable j, mirroring how an IBLT hashes an item once per
// subtable.
func Partitioned(n, m, r int, gen *rng.RNG) *Hypergraph {
	return PartitionedWithPool(n, m, r, gen, parallel.Default())
}

// PartitionedWithPool is Partitioned on an explicit worker pool. Panics
// if (n, m, r) is malformed (see validate) or n is not divisible by r.
func PartitionedWithPool(n, m, r int, gen *rng.RNG, pool *parallel.Pool) *Hypergraph {
	validate(n, m, r)
	if n%r != 0 {
		panic(fmt.Sprintf("hypergraph: n=%d not divisible by r=%d", n, r))
	}
	sub := n / r
	g := &Hypergraph{N: n, M: m, R: r, Edges: make([]uint32, m*r), SubtableSize: sub}
	base := gen.DeriveSeed()
	forEdgeChunks(pool, base, m, func(cg *rng.RNG, lo, hi int) {
		for e := lo; e < hi; e++ {
			for j := 0; j < r; j++ {
				g.Edges[e*r+j] = uint32(j*sub) + uint32(cg.Uint64n(uint64(sub)))
			}
		}
	})
	g.buildIncidence(pool)
	return g
}

// forEdgeChunks runs fill over [0, m) in genChunk-sized pieces, handing
// each piece a generator keyed by its chunk index. Chunks write disjoint
// edge ranges, so they fan out over the pool freely; the sampled values
// depend only on (base, chunk index), so any pool size — including the
// inline single-worker path — produces identical edges.
func forEdgeChunks(pool *parallel.Pool, base uint64, m int, fill func(cg *rng.RNG, lo, hi int)) {
	nChunks := (m + genChunk - 1) / genChunk
	pool.For(nChunks, 1, func(_, clo, chi int) {
		for c := clo; c < chi; c++ {
			lo := c * genChunk
			hi := min(lo+genChunk, m)
			fill(rng.NewStream(base, uint64(c)), lo, hi)
		}
	})
}

// FromEdges builds a hypergraph from an explicit flattened edge list
// (length m*r). The slice is retained, not copied. SubtableSize may be 0.
// It panics if the list length is not a multiple of r or any vertex id is
// out of range, and, for a partitioned graph, if n is not r subtables of
// subtableSize vertices or some edge's position j is not in subtable j.
func FromEdges(n, r int, edges []uint32, subtableSize int) *Hypergraph {
	return FromEdgesWithPool(n, r, edges, subtableSize, parallel.Default())
}

// FromEdgesWithPool is FromEdges on an explicit worker pool (validation
// and the CSR build parallelize over the edge list). It carries
// FromEdges's panic contract: panics if r is out of range, the edge list
// length is not a multiple of r, or a vertex id is out of range.
func FromEdgesWithPool(n, r int, edges []uint32, subtableSize int, pool *parallel.Pool) *Hypergraph {
	if r < 2 || r > MaxArity {
		panic(fmt.Sprintf("hypergraph: arity %d outside [2, %d]", r, MaxArity))
	}
	if len(edges)%r != 0 {
		panic("hypergraph: edge list length not a multiple of r")
	}
	if subtableSize != 0 && subtableSize*r != n {
		panic(fmt.Sprintf("hypergraph: %d subtables of %d vertices != n=%d", r, subtableSize, n))
	}
	misplaced := func(i int, v uint32) bool {
		return subtableSize != 0 && int(v)/subtableSize != i%r
	}
	bad := pool.NewCounter()
	pool.For(len(edges), 1<<15, func(w, lo, hi int) {
		local := 0
		for i, v := range edges[lo:hi] {
			if int(v) >= n || misplaced(lo+i, v) {
				local++
			}
		}
		bad.Add(w, int64(local))
	})
	if bad.Sum() > 0 {
		for i, v := range edges {
			if int(v) >= n {
				panic(fmt.Sprintf("hypergraph: vertex %d out of range [0,%d)", v, n))
			}
			if misplaced(i, v) {
				panic(fmt.Sprintf("hypergraph: edge %d has vertex %d at position %d, outside subtable %d", i/r, v, i%r, i%r))
			}
		}
	}
	g := &Hypergraph{N: n, M: len(edges) / r, R: r, Edges: edges, SubtableSize: subtableSize}
	g.buildIncidence(pool)
	return g
}

// seqBuildCutoff is the incidence size (m·r) below which buildIncidence
// uses the sequential counting sort: under ~64K entries the parallel
// version's extra passes and per-worker histograms cost more than they
// save. Both paths produce bit-identical Offsets and Incidence.
const seqBuildCutoff = 1 << 16

// buildSpan returns the number of static pieces the parallel counting
// sort partitions the edge list into — its effective parallelism. It is
// capped three ways: by the pool width (more pieces than workers just
// adds passes over the histogram), so every piece holds at least
// seqBuildCutoff incidences (tiny pieces would be all fixed cost), and
// so the O(span·n) histogram memory and prefix-sum work stay within a
// small constant of the O(m·r) useful work — which keeps sparse graphs
// (n ≫ m·r) and very wide pools from paying memory or column scans far
// exceeding the graph itself. A span of 1 selects the sequential sort.
func buildSpan(n, m, r, workers int) int {
	span := workers
	if byWork := m * r / seqBuildCutoff; span > byWork {
		span = byWork
	}
	if byMem := 4 * m * r / n; span > byMem {
		span = byMem
	}
	if span < 1 {
		span = 1
	}
	return span
}

// buildIncidence constructs the CSR index with a stable counting sort:
// within each vertex's list, edges appear in increasing edge id — the
// same order the sequential queue peeler and the wire format rely on.
//
// Large graphs use a three-pass parallel version of the classic sort
// (Shun-style, as in GBBS CSR construction): the edge list is split
// into span static pieces, each piece's degrees are counted into its
// own histogram, a prefix sum composed over (piece, vertex) turns the
// histograms into disjoint write cursors, and each piece scatters its
// own edge range. Piece p's slots for vertex v start after all slots of
// pieces p' < p, and pieces cover increasing edge ranges — so the
// scatter reproduces exactly the sequential edge order, bit for bit,
// for every worker count and span.
func (g *Hypergraph) buildIncidence(pool *parallel.Pool) {
	n, m, r := g.N, g.M, g.R
	span := buildSpan(n, m, r, pool.Workers())
	if span == 1 {
		g.buildIncidenceSeq()
		return
	}

	// Pass 1: per-piece degree histograms. hist[p*n+v] counts vertex v's
	// appearances in piece p's edge range. The O(span·n) memory is the
	// price of a lock-free stable sort; buildSpan bounds it relative to
	// the edge list itself.
	hist := make([]uint32, span*n)
	pool.RunRanges(m, span, func(p, elo, ehi int) {
		h := hist[p*n : p*n+n]
		for _, v := range g.Edges[elo*r : ehi*r] {
			h[v]++
		}
	})

	// Pass 2: composed prefix sum over (piece, vertex). Each piece of the
	// vertex range converts its histogram columns to exclusive
	// within-column prefixes and accumulates per-vertex total degrees
	// into a block-local running sum stored in Offsets.
	g.Offsets = make([]uint32, n+1)
	offs := g.Offsets
	blockSum := make([]uint32, span+1)
	pool.RunRanges(n, span, func(b, vlo, vhi int) {
		var local uint32
		for v := vlo; v < vhi; v++ {
			var col uint32
			for p := 0; p < span; p++ {
				i := p*n + v
				c := hist[i]
				hist[i] = col
				col += c
			}
			local += col
			offs[v+1] = local // inclusive degree prefix within the block
		}
		blockSum[b+1] = local
	})
	for b := 0; b < span; b++ { // tiny sequential scan over block totals
		blockSum[b+1] += blockSum[b]
	}
	// Add-back: globalize the block-local prefixes and turn histogram
	// columns into absolute cursors. cursor(p, v) = Offsets[v] + (count
	// of v in edge pieces before p). Every Offsets slot and histogram
	// column is written only by the block owning vertex v — no races.
	pool.RunRanges(n, span, func(b, vlo, vhi int) {
		excl := blockSum[b] // exclusive global degree prefix at v
		for v := vlo; v < vhi; v++ {
			incl := blockSum[b] + offs[v+1]
			for p := 0; p < span; p++ {
				hist[p*n+v] += excl
			}
			offs[v+1] = incl
			excl = incl
		}
	})

	// Pass 3: scatter. Each piece walks its own edge range in increasing
	// edge id, writing into the disjoint slots its cursors reserve.
	g.Incidence = make([]uint32, m*r)
	pool.RunRanges(m, span, func(p, elo, ehi int) {
		cur := hist[p*n : p*n+n]
		for e := elo; e < ehi; e++ {
			for j := 0; j < r; j++ {
				v := g.Edges[e*r+j]
				g.Incidence[cur[v]] = uint32(e)
				cur[v]++
			}
		}
	})
}

// buildIncidenceSeq is the sequential counting sort, used for small
// graphs and single-worker pools.
func (g *Hypergraph) buildIncidenceSeq() {
	n, m, r := g.N, g.M, g.R
	counts := make([]uint32, n+1)
	for _, v := range g.Edges {
		counts[v+1]++
	}
	for v := 0; v < n; v++ {
		counts[v+1] += counts[v]
	}
	g.Offsets = make([]uint32, n+1)
	copy(g.Offsets, counts)
	// Scatter. cursor[v] tracks the next write slot for vertex v; the
	// sequential scatter preserves edge order within each vertex list.
	g.Incidence = make([]uint32, m*r)
	cursor := make([]uint32, n)
	copy(cursor, counts[:n])
	for e := 0; e < m; e++ {
		base := e * r
		for j := 0; j < r; j++ {
			v := g.Edges[base+j]
			g.Incidence[cursor[v]] = uint32(e)
			cursor[v]++
		}
	}
}

// DegreeHistogram returns the vertex degree distribution up to maxDeg
// (degrees beyond maxDeg are clamped into the final bucket). Used by the
// tests to compare against the Poisson(rc) branching approximation.
func (g *Hypergraph) DegreeHistogram(maxDeg int) []int {
	hist := make([]int, maxDeg+1)
	for v := 0; v < g.N; v++ {
		d := g.Degree(v)
		if d > maxDeg {
			d = maxDeg
		}
		hist[d]++
	}
	return hist
}
