package bloomier

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/layout"
	"repro/internal/parallel"
	"repro/internal/rng"
)

func buildInputs(n int, seed uint64) (keys, values []uint64) {
	gen := rng.New(seed)
	seen := make(map[uint64]bool, n)
	for len(keys) < n {
		k := gen.Uint64()
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
			values = append(values, gen.Uint64())
		}
	}
	return keys, values
}

func TestBuildAndLookup(t *testing.T) {
	keys, values := buildInputs(50000, 1)
	f, err := Build(keys, values, DefaultGamma, 42, 10)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for i, k := range keys {
		if got := f.Lookup(k); got != values[i] {
			t.Fatalf("Lookup(%#x) = %#x, want %#x", k, got, values[i])
		}
	}
	// Space: ~γ slots per key.
	if s := f.Slots(); s > int(1.5*float64(len(keys))) {
		t.Errorf("Slots() = %d, too large for %d keys", s, len(keys))
	}
}

func TestSmallMaps(t *testing.T) {
	for _, n := range []int{1, 2, 7, 33} {
		keys, values := buildInputs(n, uint64(100+n))
		f, err := Build(keys, values, DefaultGamma, 7, 20)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i, k := range keys {
			if f.Lookup(k) != values[i] {
				t.Fatalf("n=%d: wrong value", n)
			}
		}
	}
}

func TestLengthMismatch(t *testing.T) {
	if _, err := Build([]uint64{1, 2}, []uint64{1}, DefaultGamma, 1, 5); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// TestDuplicateKeysRejected: duplicate keys return ErrDuplicateKeys
// from the first attempt instead of exhausting the seed retries — a
// tiny set, and a single repeated key far apart among 2^17 keys at
// every pool size with maxTries = 1.
func TestDuplicateKeysRejected(t *testing.T) {
	if _, err := Build([]uint64{1, 2, 3, 2}, []uint64{5, 6, 7, 8}, DefaultGamma, 1, 5); !errors.Is(err, ErrDuplicateKeys) {
		t.Fatalf("small set: err = %v, want ErrDuplicateKeys", err)
	}
	keys, values := buildInputs(1<<17, 5)
	keys[len(keys)-3] = keys[2]
	for _, workers := range []int{1, 3, 8} {
		pool := parallel.NewPool(workers)
		_, err := BuildCtx(context.Background(), keys, values, DefaultGamma, 7, 1, pool)
		pool.Close()
		if !errors.Is(err, ErrDuplicateKeys) || errors.Is(err, ErrBuildFailed) {
			t.Fatalf("workers=%d: err = %v, want ErrDuplicateKeys", workers, err)
		}
	}
}

// TestGammaOutOfRangeRejected pins the gamma bounds, as in
// internal/mphf: NaN and huge gammas are errors, not tiny or
// unallocatable tables.
func TestGammaOutOfRangeRejected(t *testing.T) {
	keys, values := buildInputs(3, 3)
	for _, gamma := range []float64{1.0, math.NaN(), math.Inf(1), 1e12, layout.MaxGamma + 0.01} {
		if f, err := Build(keys, values, gamma, 1, 3); err == nil {
			t.Errorf("gamma %v accepted: %d slots", gamma, f.Slots())
		}
	}
	if _, err := Build(keys, values, layout.MaxGamma, 1, 3); err != nil {
		t.Errorf("gamma %v rejected: %v", layout.MaxGamma, err)
	}
}

func TestZeroValuesFine(t *testing.T) {
	// Unlike the IBLT (where 0 keys break XOR accounting), zero *values*
	// are perfectly representable here.
	keys, _ := buildInputs(100, 4)
	values := make([]uint64, len(keys))
	f, err := Build(keys, values, DefaultGamma, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if f.Lookup(k) != 0 {
			t.Fatal("zero value corrupted")
		}
	}
}

func TestDeterministic(t *testing.T) {
	keys, values := buildInputs(1000, 5)
	a, err := Build(keys, values, DefaultGamma, 9, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(keys, values, DefaultGamma, 9, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if a.Lookup(k) != b.Lookup(k) {
			t.Fatal("same-seed builds disagree")
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%400) + 1
		keys, values := buildInputs(n, seed)
		flt, err := Build(keys, values, DefaultGamma, seed^0xf00, 20)
		if err != nil {
			return false
		}
		for i, k := range keys {
			if flt.Lookup(k) != values[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(23))}); err != nil {
		t.Error(err)
	}
}

// TestBuildParallelMatchesSerial builds on a one-worker pool and on the
// default pool: build-key lookups must agree exactly.
func TestBuildParallelMatchesSerial(t *testing.T) {
	keys, values := buildInputs(30000, 7)
	serialPool := parallel.NewPool(1)
	defer serialPool.Close()
	serial, err := BuildCtx(context.Background(), keys, values, DefaultGamma, 55, 10, serialPool)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Build(keys, values, DefaultGamma, 55, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if par.Lookup(k) != values[i] {
			t.Fatalf("parallel build wrong value for key %d", i)
		}
		if par.Lookup(k) != serial.Lookup(k) {
			t.Fatalf("parallel and serial builds disagree on key %d", i)
		}
	}
}

func TestBuildParallelSmall(t *testing.T) {
	for _, n := range []int{1, 3, 10, 100} {
		keys, values := buildInputs(n, uint64(200+n))
		f, err := Build(keys, values, DefaultGamma, 9, 20)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i, k := range keys {
			if f.Lookup(k) != values[i] {
				t.Fatalf("n=%d: wrong value", n)
			}
		}
	}
}

func TestBuildParallelValidation(t *testing.T) {
	if _, err := Build([]uint64{1}, []uint64{1, 2}, DefaultGamma, 1, 5); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Build([]uint64{1, 2}, []uint64{3, 4}, 1.0, 1, 5); err == nil {
		t.Error("tiny gamma accepted")
	}
}

func BenchmarkBuild(b *testing.B) {
	keys, values := buildInputs(1<<16, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(keys, values, DefaultGamma, uint64(i), 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLookup(b *testing.B) {
	keys, values := buildInputs(1<<16, 1)
	f, err := Build(keys, values, DefaultGamma, 1, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= f.Lookup(keys[i&(1<<16-1)])
	}
	_ = sink
}

// TestBuildWithPoolMatchesDefault proves building on an explicit pool
// (BuildCtx) solves the same constraint system as Build: build keys
// look up identical values at any pool size.
func TestBuildWithPoolMatchesDefault(t *testing.T) {
	keys, values := buildInputs(20000, 9)
	base, err := Build(keys, values, DefaultGamma, 7, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		pool := parallel.NewPool(workers)
		f, err := BuildCtx(context.Background(), keys, values, DefaultGamma, 7, 10, pool)
		pool.Close()
		if err != nil {
			t.Fatalf("BuildCtx(workers=%d): %v", workers, err)
		}
		for i, k := range keys {
			if got := f.Lookup(k); got != values[i] || got != base.Lookup(k) {
				t.Fatalf("workers=%d: Lookup(%#x) = %#x, want %#x", workers, k, got, values[i])
			}
		}
	}
}

// TestBuildWorkersMatchesBuild checks that a build on a private
// three-worker pool produces a function identical to Build's on the
// build keys.
func TestBuildWorkersMatchesBuild(t *testing.T) {
	keys, values := buildInputs(2500, 81)
	base, err := Build(keys, values, DefaultGamma, 7, 10)
	if err != nil {
		t.Fatal(err)
	}
	pool := parallel.NewPool(3)
	defer pool.Close()
	f, err := BuildCtx(context.Background(), keys, values, DefaultGamma, 7, 10, pool)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if f.Lookup(k) != values[i] || base.Lookup(k) != values[i] {
			t.Fatalf("lookup mismatch on key %#x", k)
		}
	}
}

// TestConcurrentStaticMapBuildsSharedPool runs builds concurrently on
// one shared pool, twice each, so that the builds hand their key-peel
// buffers to one another; each must map its own keys, with the image a
// serial build makes.
func TestConcurrentStaticMapBuildsSharedPool(t *testing.T) {
	const jobs = 6
	one := parallel.NewPool(1)
	serial := make([][]byte, jobs)
	for j := range serial {
		keys, values := buildInputs(1500+3000*j, uint64(90+j))
		f, err := BuildCtx(context.Background(), keys, values, DefaultGamma, uint64(7+j), 10, one)
		if err != nil {
			t.Fatal(err)
		}
		serial[j] = f.Bytes()
	}
	one.Close()
	pool := parallel.NewPool(3)
	defer pool.Close()
	group := pool.NewGroup(4)
	for j := 0; j < jobs; j++ {
		group.Go(func(p *parallel.Pool) error {
			keys, values := buildInputs(1500+3000*j, uint64(90+j))
			for range 2 {
				f, err := BuildCtx(context.Background(), keys, values, DefaultGamma, uint64(7+j), 10, p)
				if err != nil {
					return err
				}
				if !bytes.Equal(f.Bytes(), serial[j]) {
					return fmt.Errorf("job %d: image differs from the serial build's", j)
				}
				for i, k := range keys {
					if f.Lookup(k) != values[i] {
						return fmt.Errorf("job %d: wrong value for key %#x", j, k)
					}
				}
			}
			return nil
		})
	}
	if err := group.Wait(); err != nil {
		t.Fatal(err)
	}
}
