package mphf

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/bits"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/layout"
	"repro/internal/parallel"
)

// buildSerialPeel is the pre-ordered-peel construction — sequential
// queue peel plus serial reverse-order assignment — kept in the tests
// as the baseline BenchmarkBuildMPHF measures against and as an
// independent validity oracle. It must never be used from the build
// path. Like the real builder it writes its arrays straight into a
// flat layout image.
func buildSerialPeel(keys []uint64, gamma float64, seed uint64, maxTries int) (*MPHF, error) {
	m := len(keys)
	subSize, err := layout.SubSize(m, gamma)
	if err != nil {
		return nil, err
	}
	for try := 0; try < maxTries; try++ {
		attemptSeed, hseed := attemptSeeds(seed, try)
		n := subSize * arity
		edges := make([]uint32, len(keys)*arity)
		for i, k := range keys {
			vs := layout.VertexTriple(hseed, subSize, k)
			copy(edges[i*arity:], vs[:])
		}
		g := hypergraph.FromEdges(n, arity, edges, subSize)
		peel := core.Sequential(g, 2)
		if !peel.Empty() {
			continue
		}
		im := layout.NewMPHF(attemptSeed, hseed, m, subSize)
		for i := len(peel.PeelOrder) - 1; i >= 0; i-- {
			e := int(peel.PeelOrder[i])
			free := peel.FreeVertex[e]
			sum := 0
			p := -1
			for pos, u := range g.EdgeVertices(e) {
				if u == free {
					p = pos
				} else {
					sum += int(im.G[u])
				}
			}
			im.G[free] = uint8(((p-sum)%arity + arity) % arity)
			im.Used[free>>6] |= 1 << (uint(free) & 63)
		}
		for i, w := range im.Used {
			im.Rank[i+1] = im.Rank[i] + uint32(bits.OnesCount64(w))
		}
		im.Marshal()
		return &MPHF{im: im}, nil
	}
	return nil, ErrBuildFailed
}

// TestBuildBitIdenticalAcrossWorkerCounts is the serial-equivalence
// contract of the ordered-peel build: the same seed produces the same
// function — byte for byte, not just lookup-equal — on pools of 1, 3,
// and 8 workers, so "the serial build" is just the 1-worker run of the
// same code. With the flat layout the comparison is literal: the
// sealed images must be equal as byte strings.
func TestBuildBitIdenticalAcrossWorkerCounts(t *testing.T) {
	keys := randomKeys(30000, 17)
	var ref *MPHF
	for _, workers := range []int{1, 3, 8} {
		pool := parallel.NewPool(workers)
		f, err := BuildCtx(context.Background(), keys, DefaultGamma, 7, 10, pool)
		pool.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = f
			continue
		}
		if !bytes.Equal(f.Bytes(), ref.Bytes()) {
			t.Fatalf("workers=%d: image not byte-identical to the 1-worker build", workers)
		}
	}
}

// TestBuildAgreesWithSerialPeelOracle checks the ordered-peel build
// against the old sequential construction: both must be valid MPHFs
// over the same key set with identical table geometry. The two peel
// orders choose different (equally valid) orientations, so the
// bijections themselves may differ — validity, not equality, is the
// contract.
func TestBuildAgreesWithSerialPeelOracle(t *testing.T) {
	keys := randomKeys(20000, 23)
	oracle, err := buildSerialPeel(keys, DefaultGamma, 7, 10)
	if err != nil {
		t.Fatalf("serial oracle: %v", err)
	}
	f, err := Build(keys, DefaultGamma, 7, 10)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if f.Keys() != oracle.Keys() || f.Vertices() != oracle.Vertices() || f.Seed() != oracle.Seed() {
		t.Fatal("geometry diverged from the serial construction")
	}
	seen := make([]bool, len(keys))
	for _, k := range keys {
		v := f.Lookup(k)
		if v < 0 || v >= len(keys) || seen[v] {
			t.Fatalf("ordered-peel build not a bijection at key %#x", k)
		}
		seen[v] = true
	}
}

// TestBuildFailedReportsSurvivors pins the diagnosable failure error:
// above the peeling threshold every attempt leaves a 2-core, and the
// error must wrap ErrBuildFailed and name the last attempt's survivor
// count.
func TestBuildFailedReportsSurvivors(t *testing.T) {
	keys := randomKeys(20000, 29)
	// γ = 1.12 → density 0.893 > c*(2,3) ≈ 0.818: peeling fails w.h.p.
	_, err := Build(keys, 1.12, 3, 2)
	if !errors.Is(err, ErrBuildFailed) {
		t.Fatalf("err = %v, want ErrBuildFailed", err)
	}
	if !strings.Contains(err.Error(), "edges left in 2-core after attempt 2") {
		t.Fatalf("error does not surface the survivor count: %v", err)
	}
	var survivors int
	if _, serr := fmt.Sscanf(err.Error(), "mphf: construction failed on all attempts: %d edges", &survivors); serr != nil || survivors <= 0 {
		t.Fatalf("survivor count missing or zero in %q", err)
	}
}

// BenchmarkBuildMPHF is the build-path acceptance benchmark: the old
// serial-peel construction against the ordered-peel build at several
// pool sizes (pools hoisted out of the timed loop). The fixed seed
// peels on the first attempt in every variant, so each op times one
// attempt: hashing, the peel, the g sweep and sealing — and, in the
// serial variant only, the CSR index its queue peel walks.
func BenchmarkBuildMPHF(b *testing.B) {
	keys := randomKeys(1<<17, 1)
	b.Run("SerialPeel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := buildSerialPeel(keys, DefaultGamma, 42, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range []int{1, 2, 4} {
		pool := parallel.NewPool(workers)
		b.Run(fmt.Sprintf("Ordered/W=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := BuildCtx(context.Background(), keys, DefaultGamma, 42, 10, pool); err != nil {
					b.Fatal(err)
				}
			}
		})
		pool.Close()
	}
}
