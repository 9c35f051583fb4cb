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

// BenchmarkPhaseAFilter isolates the round-loop's Phase A — filtering
// the frontier into the peel set — in its serial pre-refactor form
// against the sharded parallel form of the round kernel's select pass. The
// small size models the O(log log n) tail rounds: at n ≤ grain the
// pooled filter runs inline on the submitter, so the tail pays no
// dispatch and must show no regression.
func BenchmarkPhaseAFilter(b *testing.B) {
	workers := parallel.Workers()
	if workers < 2 {
		workers = 4
	}
	p := parallel.NewPool(workers)
	defer p.Close()
	const grain = 2048
	for _, n := range []int{256, 1 << 16} {
		frontier := make([]uint32, n)
		deg := make([]int32, n)
		for i := range frontier {
			frontier[i] = uint32(i)
			deg[i] = int32(i % 3) // ~1/3 below k, like a peel round
		}
		b.Run(fmt.Sprintf("Serial/n=%d", n), func(b *testing.B) {
			vdead := make([]uint8, n)
			peelSet := make([]uint32, 0, n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				clear(vdead)
				peelSet = peelSet[:0]
				for _, v := range frontier {
					if vdead[v] == 0 && deg[v] < 1 {
						vdead[v] = 1
						peelSet = append(peelSet, v)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("Sharded/n=%d", n), func(b *testing.B) {
			vdead := make([]uint8, n)
			shards := make([][]uint32, p.Workers())
			peelSet := make([]uint32, 0, n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				clear(vdead)
				peelSet = peelSet[:0]
				p.For(len(frontier), grain, func(w, lo, hi int) {
					local := shards[w]
					for j := lo; j < hi; j++ {
						v := frontier[j]
						if vdead[v] == 0 && deg[v] < 1 {
							vdead[v] = 1
							local = append(local, v)
						}
					}
					shards[w] = local
				})
				peelSet = drain(peelSet, shards)
			}
		})
	}
}
