package core

import (
	"fmt"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// BenchmarkOrderedPeel compares the three sources of a peel on the same
// below-threshold instance: the sequential queue peel (the only source
// of PeelOrder/FreeVertex before the ordered peel existed), the plain
// round-synchronous Parallel peel (no ordering artifacts), and
// ParallelOrder at several pool sizes — the number the builders' retry
// loops now pay per attempt.
func BenchmarkOrderedPeel(b *testing.B) {
	g := hypergraph.Uniform(1<<19, 390000, 3, rng.New(1)) // c ≈ 0.74 < c*(2,3)
	b.Run("Sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if res := Sequential(g, 2); !res.Empty() {
				b.Fatal("peel failed")
			}
		}
	})
	for _, workers := range []int{1, 2, 4} {
		pool := parallel.NewPool(workers)
		opts := Options{Pool: pool}
		b.Run(fmt.Sprintf("Parallel/W=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if res := Parallel(g, 2, opts); !res.Empty() {
					b.Fatal("peel failed")
				}
			}
		})
		b.Run(fmt.Sprintf("Ordered/W=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if res := ParallelOrder(g, 2, opts); !res.Empty() {
					b.Fatal("peel failed")
				}
			}
		})
		pool.Close()
	}
}
