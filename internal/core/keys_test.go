package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/layout"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// keyInstance returns m random keys and the builders' vertex hash for a
// 3-partite key hypergraph at vertex/key ratio gamma.
func keyInstance(m int, gamma float64, seed uint64) (keys []uint64, subSize int, hash func(uint64) [3]uint32) {
	gen := rng.New(seed)
	keys = make([]uint64, m)
	for i := range keys {
		keys[i] = gen.Uint64()
	}
	subSize = int(gamma*float64(m))/3 + 1
	hseed := [3]uint64{gen.Uint64(), gen.Uint64(), gen.Uint64()}
	hash = func(x uint64) [3]uint32 { return layout.VertexTriple(hseed, subSize, x) }
	return keys, subSize, hash
}

// peelKeys runs PeelKeys on a fresh pool of the given size and also
// returns the CSR graph of its edge list, for the index-based oracles.
func peelKeys(t *testing.T, keys []uint64, subSize int, hash func(uint64) [3]uint32, workers int) (*hypergraph.Hypergraph, *OrderedResult) {
	t.Helper()
	pool := parallel.NewPool(workers)
	defer pool.Close()
	edges, ord, err := PeelKeys(context.Background(), keys, subSize, hash, pool)
	if err != nil {
		t.Fatal(err)
	}
	return hypergraph.FromEdges(3*subSize, 3, edges, subSize), ord
}

// TestPeelKeysDeterministic is the bit-stability contract of the
// builders' peel: identical FreeVertex, RoundOf, PeelOrder and
// RoundStart at pools 1/2/3/8, on five seeds, with no claim pass.
func TestPeelKeysDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		keys, subSize, hash := keyInstance(1<<14, 1.23, seed)
		_, ref := peelKeys(t, keys, subSize, hash, 1)
		for _, workers := range []int{2, 3, 8} {
			_, got := peelKeys(t, keys, subSize, hash, workers)
			name := fmt.Sprintf("seed %d, %d workers", seed, workers)
			if !reflect.DeepEqual(got.FreeVertex, ref.FreeVertex) {
				t.Fatalf("%s: FreeVertex diverged", name)
			}
			if !reflect.DeepEqual(got.RoundOf, ref.RoundOf) {
				t.Fatalf("%s: RoundOf diverged", name)
			}
			if !reflect.DeepEqual(got.PeelOrder, ref.PeelOrder) {
				t.Fatalf("%s: PeelOrder diverged", name)
			}
			if !reflect.DeepEqual(got.RoundStart, ref.RoundStart) {
				t.Fatalf("%s: RoundStart diverged", name)
			}
		}
	}
}

// TestPeelKeysMatchesSubtables checks the index-free peel runs the
// Appendix B process itself: the same rounds, subrounds, survivor
// history and core as Subtables on the CSR graph of its edges, with
// subround segments that ValidateEliminationOrder accepts. Both sides of
// the threshold are covered.
func TestPeelKeysMatchesSubtables(t *testing.T) {
	for _, gamma := range []float64{1.1, 1.23, 1.5} {
		keys, subSize, hash := keyInstance(30000, gamma, 7)
		g, ord := peelKeys(t, keys, subSize, hash, 3)
		want := Subtables(g, 2, Options{})
		if ord.Rounds != want.Rounds || ord.Subrounds != want.Subrounds ||
			!reflect.DeepEqual(ord.SurvivorHistory, want.SurvivorHistory) {
			t.Fatalf("γ=%v: rounds/subrounds %d/%d, want %d/%d (history equal: %v)", gamma,
				ord.Rounds, ord.Subrounds, want.Rounds, want.Subrounds,
				reflect.DeepEqual(ord.SurvivorHistory, want.SurvivorHistory))
		}
		if !reflect.DeepEqual(ord.VertexAlive, want.VertexAlive) || !reflect.DeepEqual(ord.EdgeAlive, want.EdgeAlive) {
			t.Fatalf("γ=%v: core differs from Subtables", gamma)
		}
		if ord.Segments() != ord.Subrounds {
			t.Fatalf("γ=%v: %d segments, want one per subround (%d)", gamma, ord.Segments(), ord.Subrounds)
		}
		if err := ValidateEliminationOrder(g, ord, 2); err != nil {
			t.Fatalf("γ=%v: %v", gamma, err)
		}
	}
}

// TestPeelKeysCoreMatchesSequential is the k-core uniqueness oracle at
// γ = 1.1, above the threshold, where the 2-core is non-empty: the
// subround peel and the sequential queue peel leave the same core.
func TestPeelKeysCoreMatchesSequential(t *testing.T) {
	for seed := uint64(11); seed <= 13; seed++ {
		keys, subSize, hash := keyInstance(1<<15, 1.1, seed)
		for _, workers := range []int{1, 3} {
			g, ord := peelKeys(t, keys, subSize, hash, workers)
			seq := Sequential(g, 2)
			if seq.CoreEdges == 0 {
				t.Fatalf("seed %d: empty 2-core at γ = 1.1", seed)
			}
			if !reflect.DeepEqual(ord.EdgeAlive, seq.EdgeAlive) || !reflect.DeepEqual(ord.VertexAlive, seq.VertexAlive) {
				t.Fatalf("seed %d, %d workers: core differs from Sequential", seed, workers)
			}
			if ord.CoreEdges != seq.CoreEdges || ord.CoreVertices != seq.CoreVertices {
				t.Fatalf("seed %d: core (%d, %d), want (%d, %d)", seed,
					ord.CoreVertices, ord.CoreEdges, seq.CoreVertices, seq.CoreEdges)
			}
		}
	}
}

// TestPeelKeysDuplicateHeavy repeats one key 70 000 times among 2^17:
// its three vertices' degrees exceed 2^16 and their edge-id sums wrap
// mod 2^32, and the one attempt still reports ErrDuplicateKeys.
func TestPeelKeysDuplicateHeavy(t *testing.T) {
	keys, subSize, hash := keyInstance(1<<17, 1.23, 3)
	for i := 1; i <= 70000; i++ {
		keys[i*len(keys)/70001] = keys[0]
	}
	for _, workers := range []int{1, 3, 8} {
		pool := parallel.NewPool(workers)
		edges, ord, err := PeelKeys(context.Background(), keys, subSize, hash, pool)
		pool.Close()
		if !errors.Is(err, ErrDuplicateKeys) || edges != nil || ord != nil {
			t.Fatalf("%d workers: err = %v, want ErrDuplicateKeys and no result", workers, err)
		}
	}
}

// TestPeelKeysCancels checks the builders' peel stops at the very next
// subround barrier and, pre-canceled, allocates nothing.
func TestPeelKeysCancels(t *testing.T) {
	keys, subSize, hash := keyInstance(20000, 1.23, 5)
	pool := parallel.NewPool(2)
	defer pool.Close()
	run := func(ctx context.Context) (*OrderedResult, error) {
		_, ord, err := PeelKeys(ctx, keys, subSize, hash, pool)
		return ord, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := run(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("pre-canceled: err = %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("pre-canceled peel allocated %v times", allocs)
	}
	full := &barrierCtx{cancelAfter: 1 << 30}
	if _, err := run(full); err != nil {
		t.Fatal(err)
	}
	total := full.calls.Load()
	for _, allow := range []int64{1, total / 2, total - 1} {
		cc := &barrierCtx{cancelAfter: allow}
		ord, err := run(cc)
		if !errors.Is(err, context.Canceled) || ord != nil {
			t.Fatalf("canceled after %d of %d: err = %v", allow, total, err)
		}
		if got := cc.calls.Load(); got != allow+1 {
			t.Errorf("canceled after %d: %d Err() calls, want %d", allow, got, allow+1)
		}
	}
}

// BenchmarkPeelKeys times the builders' peel, key hashing included, on
// the 2^17-key MPHF instance at several pool sizes.
func BenchmarkPeelKeys(b *testing.B) {
	keys, subSize, hash := keyInstance(1<<17, 1.23, 1)
	for _, workers := range []int{1, 2, 4} {
		pool := parallel.NewPool(workers)
		b.Run(fmt.Sprintf("W=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ord, err := PeelKeys(context.Background(), keys, subSize, hash, pool); err != nil || !ord.Empty() {
					b.Fatalf("peel failed: %v", err)
				}
			}
		})
		pool.Close()
	}
}
