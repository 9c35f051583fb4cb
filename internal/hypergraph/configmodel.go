package hypergraph

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/rng"
)

// ConfigurationModel generates an r-uniform hypergraph with a prescribed
// vertex degree sequence, by stub matching: vertex v contributes
// degrees[v] stubs, the stub multiset is shuffled, and consecutive
// groups of r stubs become edges. Stubs left over when the total is not
// divisible by r are dropped (at most r−1 of them, from random
// vertices).
//
// This is the irregular-degree substrate of the LDPC line of work the
// paper cites: the main theorems assume Poisson degrees (every edge
// picks fresh uniform vertices), and the configuration model lets the
// experiments explore how degree design shifts peeling behaviour — a
// d-regular sequence with d >= k, for instance, is its own k-core and
// never peels at all.
//
// Edges must consist of distinct vertices; groups violating this are
// repaired by swapping offending stubs with later positions. For degree
// sequences where some vertex holds more than a 1/r fraction of all
// stubs a valid matching may not exist; after maxRepair failed passes
// the function panics with a descriptive message.
//
// It panics if r is outside [2, MaxArity] or a degree is negative.
//
// Stub matching is inherently sequential (each repair swap depends on
// the previous), so only the CSR incidence build parallelizes; it runs
// on the process-wide default pool.
func ConfigurationModel(degrees []int32, r int, gen *rng.RNG) *Hypergraph {
	n := len(degrees)
	if r < 2 || r > MaxArity {
		panic(fmt.Sprintf("hypergraph: arity %d outside [2, %d]", r, MaxArity))
	}
	total := 0
	for v, d := range degrees {
		if d < 0 {
			panic(fmt.Sprintf("hypergraph: negative degree at vertex %d", v))
		}
		total += int(d)
	}
	stubs := make([]uint32, 0, total)
	for v, d := range degrees {
		for i := int32(0); i < d; i++ {
			stubs = append(stubs, uint32(v))
		}
	}
	gen.Shuffle32(stubs)
	m := len(stubs) / r
	stubs = stubs[:m*r]

	// Repair duplicate vertices inside an edge by swapping with a random
	// later stub. Each pass scans all edges; distinct-vertex groups are
	// left untouched, so passes converge quickly for sane sequences.
	const maxRepair = 200
	for pass := 0; ; pass++ {
		conflicts := 0
		for e := 0; e < m; e++ {
			base := e * r
			for i := 1; i < r; i++ {
				for j := 0; j < i; j++ {
					if stubs[base+i] == stubs[base+j] {
						conflicts++
						// Swap the duplicate with a uniformly random stub
						// (possibly in another edge); progress in
						// expectation because the partner edge rarely
						// contains this vertex.
						t := gen.Intn(m * r)
						stubs[base+i], stubs[t] = stubs[t], stubs[base+i]
					}
				}
			}
		}
		if conflicts == 0 {
			break
		}
		if pass >= maxRepair {
			panic(fmt.Sprintf("hypergraph: configuration model could not resolve %d duplicate-vertex conflicts (degree sequence too concentrated for r=%d)", conflicts, r))
		}
	}
	g := &Hypergraph{N: n, M: m, R: r, Edges: stubs}
	g.buildIncidence(parallel.Default())
	return g
}

// RegularDegrees returns the all-d degree sequence of length n — the
// fully regular ensemble.
func RegularDegrees(n int, d int32) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = d
	}
	return out
}

// PoissonDegrees returns a degree sequence sampled i.i.d. from
// Poisson(mean) — the configuration-model twin of the uniform ensemble,
// used to validate that the two models peel alike.
func PoissonDegrees(n int, mean float64, gen *rng.RNG) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(gen.Poisson(mean))
	}
	return out
}
