package mphf

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/layout"
	"repro/internal/parallel"
	"repro/internal/rng"
)

func randomKeys(n int, seed uint64) []uint64 {
	gen := rng.New(seed)
	seen := make(map[uint64]bool, n)
	keys := make([]uint64, 0, n)
	for len(keys) < n {
		k := gen.Uint64()
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

func TestBuildAndLookupBijective(t *testing.T) {
	keys := randomKeys(50000, 1)
	f, err := Build(keys, DefaultGamma, 42, 10)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if f.Keys() != len(keys) {
		t.Fatalf("Keys() = %d", f.Keys())
	}
	seen := make([]bool, len(keys))
	for _, k := range keys {
		v := f.Lookup(k)
		if v < 0 || v >= len(keys) {
			t.Fatalf("Lookup out of range: %d", v)
		}
		if seen[v] {
			t.Fatalf("Lookup collision at %d", v)
		}
		seen[v] = true
	}
}

func TestSmallSets(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 17} {
		keys := randomKeys(n, uint64(n))
		f, err := Build(keys, DefaultGamma, 7, 20)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		seen := make(map[int]bool)
		for _, k := range keys {
			v := f.Lookup(k)
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("n=%d: bad lookup %d", n, v)
			}
			seen[v] = true
		}
	}
}

func TestDuplicateKeysRejected(t *testing.T) {
	keys := []uint64{1, 2, 3, 2}
	if _, err := Build(keys, DefaultGamma, 1, 5); !errors.Is(err, ErrDuplicateKeys) {
		t.Fatalf("expected ErrDuplicateKeys, got %v", err)
	}
}

// TestDuplicatePairRejected: a single repeated key, its two copies far
// apart among 2^17 keys, is found in the first attempt's 2-core —
// maxTries = 1 leaves no second attempt — at every pool size, and the
// error names the key.
func TestDuplicatePairRejected(t *testing.T) {
	keys := randomKeys(1<<17, 5)
	keys[len(keys)-3] = keys[2]
	for _, workers := range []int{1, 3, 8} {
		pool := parallel.NewPool(workers)
		_, err := BuildCtx(context.Background(), keys, DefaultGamma, 7, 1, pool)
		pool.Close()
		if !errors.Is(err, ErrDuplicateKeys) || errors.Is(err, ErrBuildFailed) {
			t.Fatalf("workers=%d: err = %v, want ErrDuplicateKeys", workers, err)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("%#x", keys[2])) {
			t.Fatalf("workers=%d: error %q does not name key %#x", workers, err, keys[2])
		}
	}
}

// TestGammaOutOfRangeRejected pins the gamma bounds: NaN once passed a
// "gamma < 1.1" check and built a 3-key function on 6 vertices, and a
// huge gamma asked for a table the process could not allocate.
func TestGammaOutOfRangeRejected(t *testing.T) {
	for _, gamma := range []float64{1.0, math.NaN(), math.Inf(1), 1e12, layout.MaxGamma + 0.01} {
		if f, err := Build(randomKeys(3, 1), gamma, 1, 3); err == nil {
			t.Errorf("gamma %v accepted: %d vertices", gamma, f.Vertices())
		}
	}
	if _, err := Build(randomKeys(3, 1), layout.MaxGamma, 1, 3); err != nil {
		t.Errorf("gamma %v rejected: %v", layout.MaxGamma, err)
	}
}

func TestTightGammaEventuallyBuilds(t *testing.T) {
	// γ = 1.25 keeps density 0.80 < 0.818: still succeeds, demonstrating
	// how close to the threshold the construction can run.
	keys := randomKeys(20000, 3)
	f, err := Build(keys, 1.25, 11, 20)
	if err != nil {
		t.Fatalf("Build at gamma 1.25: %v", err)
	}
	seen := make([]bool, len(keys))
	for _, k := range keys {
		v := f.Lookup(k)
		if seen[v] {
			t.Fatal("collision at tight gamma")
		}
		seen[v] = true
	}
}

func TestSpaceAccounting(t *testing.T) {
	keys := randomKeys(10000, 4)
	f, err := Build(keys, DefaultGamma, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Vertices ≈ γ·m (within the subtable rounding of 3 vertices).
	if v := f.Vertices(); v < int(DefaultGamma*10000) || v > int(DefaultGamma*10000)+3 {
		t.Errorf("Vertices() = %d, want ≈ %d", v, int(DefaultGamma*10000))
	}
}

func TestDeterministicLookups(t *testing.T) {
	keys := randomKeys(5000, 5)
	f, err := Build(keys, DefaultGamma, 9, 10)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(keys, DefaultGamma, 9, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if f.Lookup(k) != g.Lookup(k) {
			t.Fatal("same-seed builds disagree")
		}
	}
}

func TestForeignKeysStayInRange(t *testing.T) {
	keys := randomKeys(1000, 6)
	f, err := Build(keys, DefaultGamma, 13, 10)
	if err != nil {
		t.Fatal(err)
	}
	gen := rng.New(999)
	for i := 0; i < 10000; i++ {
		v := f.Lookup(gen.Uint64())
		if v < 0 || v >= f.Keys() {
			t.Fatalf("foreign key lookup out of range: %d", v)
		}
	}
}

func TestQuickBijectivity(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%500) + 1
		keys := randomKeys(n, seed)
		fn, err := Build(keys, DefaultGamma, seed^0xbeef, 20)
		if err != nil {
			return false
		}
		seen := make([]bool, n)
		for _, k := range keys {
			v := fn.Lookup(k)
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(19))}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBuild(b *testing.B) {
	keys := randomKeys(1<<16, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(keys, DefaultGamma, uint64(i), 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLookup(b *testing.B) {
	keys := randomKeys(1<<16, 1)
	f, err := Build(keys, DefaultGamma, 1, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += f.Lookup(keys[i&(1<<16-1)])
	}
	_ = sink
}

// TestBuildWithPoolMatchesDefault proves building on an explicit pool
// (BuildCtx) is a pure performance change: the hash seeds, the peeled
// hypergraph, and hence every lookup are identical to Build's, at any
// pool size.
func TestBuildWithPoolMatchesDefault(t *testing.T) {
	keys := randomKeys(20000, 9)
	ref, err := Build(keys, DefaultGamma, 7, 10)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for _, workers := range []int{1, 3, 8} {
		pool := parallel.NewPool(workers)
		f, err := BuildCtx(context.Background(), keys, DefaultGamma, 7, 10, pool)
		pool.Close()
		if err != nil {
			t.Fatalf("BuildCtx(workers=%d): %v", workers, err)
		}
		for _, k := range keys {
			if f.Lookup(k) != ref.Lookup(k) {
				t.Fatalf("workers=%d: Lookup(%#x) = %d, want %d", workers, k, f.Lookup(k), ref.Lookup(k))
			}
		}
	}
}

// TestBuildWorkersMatchesBuild checks that a build on a private
// three-worker pool produces the identical function (same seed → same
// attempt sequence → same g values).
func TestBuildWorkersMatchesBuild(t *testing.T) {
	keys := randomKeys(3000, 71)
	base, err := Build(keys, DefaultGamma, 7, 10)
	if err != nil {
		t.Fatal(err)
	}
	pool := parallel.NewPool(3)
	defer pool.Close()
	f, err := BuildCtx(context.Background(), keys, DefaultGamma, 7, 10, pool)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if f.Lookup(k) != base.Lookup(k) {
			t.Fatalf("three-worker build lookup diverges on key %#x", k)
		}
	}
}

// TestConcurrentBuildsSharedPool runs several MPHF builds concurrently
// on one shared pool, twice each, so that the builds hand their key-peel
// buffers to one another; each must be a valid MPHF over its own key
// set, with the image a serial build makes.
func TestConcurrentBuildsSharedPool(t *testing.T) {
	const jobs = 6
	keys := func(j int) []uint64 { return randomKeys(2000+3000*j, uint64(80+j)) }
	one := parallel.NewPool(1)
	serial := make([][]byte, jobs)
	for j := range serial {
		f, err := BuildCtx(context.Background(), keys(j), DefaultGamma, uint64(7+j), 10, one)
		if err != nil {
			t.Fatal(err)
		}
		serial[j] = f.Bytes()
	}
	one.Close()
	pool := parallel.NewPool(3)
	defer pool.Close()
	group := pool.NewGroup(0)
	for j := 0; j < jobs; j++ {
		group.Go(func(p *parallel.Pool) error {
			keys := keys(j)
			for range 2 {
				f, err := BuildCtx(context.Background(), keys, DefaultGamma, uint64(7+j), 10, p)
				if err != nil {
					return err
				}
				if !bytes.Equal(f.Bytes(), serial[j]) {
					return fmt.Errorf("job %d: image differs from the serial build's", j)
				}
				seen := make([]bool, f.Keys())
				for _, k := range keys {
					v := f.Lookup(k)
					if v < 0 || v >= f.Keys() || seen[v] {
						return fmt.Errorf("job %d: lookup not a bijection at key %#x", j, k)
					}
					seen[v] = true
				}
			}
			return nil
		})
	}
	if err := group.Wait(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkConcurrentBuild measures aggregate MPHF build throughput of J
// concurrent jobs under the two serving topologies: one shared pool of W
// workers (parallel.Group) vs J isolated pools of max(1, W/J) workers
// (fixed total cores).
func BenchmarkConcurrentBuild(b *testing.B) {
	workers := parallel.Workers()
	if workers < 4 {
		workers = 4
	}
	keys := randomKeys(20000, 5)
	buildJob := func(p *parallel.Pool, reps, j int) error {
		for i := 0; i < reps; i++ {
			if _, err := BuildCtx(context.Background(), keys, DefaultGamma, uint64(7+j), 10, p); err != nil {
				return err
			}
		}
		return nil
	}
	for _, jobs := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("SharedPool/jobs=%d", jobs), func(b *testing.B) {
			pool := parallel.NewPool(workers)
			defer pool.Close()
			b.ResetTimer()
			group := pool.NewGroup(0)
			for j := 0; j < jobs; j++ {
				group.Go(func(p *parallel.Pool) error { return buildJob(p, b.N/jobs+1, j) })
			}
			if err := group.Wait(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(keys)), "keys/op")
		})
		b.Run(fmt.Sprintf("IsolatedPools/jobs=%d", jobs), func(b *testing.B) {
			per := workers / jobs
			if per < 1 {
				per = 1
			}
			pools := make([]*parallel.Pool, jobs)
			for j := range pools {
				pools[j] = parallel.NewPool(per)
				defer pools[j].Close()
			}
			b.ResetTimer()
			done := make(chan error, jobs)
			for j := 0; j < jobs; j++ {
				go func() { done <- buildJob(pools[j], b.N/jobs+1, j) }()
			}
			for j := 0; j < jobs; j++ {
				if err := <-done; err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(keys)), "keys/op")
		})
	}
}
