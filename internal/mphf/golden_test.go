package mphf

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"runtime"
	"testing"

	"repro/internal/parallel"
)

// TestBuildGoldenImages pins the sha256 of sealed images at three key
// counts on pools of 1, 3 and 8 workers. The cross-pool tests only
// compare images within one build of the code; this test also fails
// when a change to the peel or the assignment sweep alters every
// image alike.
func TestBuildGoldenImages(t *testing.T) {
	golden := []struct {
		n    int
		want string
	}{
		{1000, "079e116e96f77ef5304f0e67db0052c8238b6060bcd313e21fcc933a547e0873"},
		{50000, "17a30ba38d726bbb2b761d3e7b0a6bc966ebc1b56556950b645b37635515f61e"},
		{1 << 17, "96870dfdf487db00b86550ab04b3da07afb599d546eacbf848b46a19d44439c0"},
	}
	for _, workers := range []int{1, 3, 8} {
		pool := parallel.NewPool(workers)
		for _, g := range golden {
			f, err := BuildCtx(context.Background(), randomKeys(g.n, 2014), DefaultGamma, 42, 10, pool)
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", g.n, workers, err)
			}
			sum := sha256.Sum256(f.Bytes())
			if got := hex.EncodeToString(sum[:]); got != g.want {
				t.Errorf("n=%d workers=%d: image sha256 %s, want %s", g.n, workers, got, g.want)
			}
		}
		pool.Close()
	}
}

// TestBuildGoldenImagesAfterLargerBuild checks that reused key-peel
// buffers change no image: a 2^18-key attempt that leaves a 2-core and a
// 2^18-key build both release buffers larger than the golden builds
// need, with stale vertex state, edges and order entries in them, and
// the golden images must still come out.
func TestBuildGoldenImagesAfterLargerBuild(t *testing.T) {
	keys := randomKeys(1<<18, 7)
	pool := parallel.NewPool(2)
	if _, err := BuildCtx(context.Background(), keys, 1.1, 42, 1, pool); !errors.Is(err, ErrBuildFailed) {
		t.Fatalf("γ=1.1: err = %v, want ErrBuildFailed", err)
	}
	if _, err := BuildCtx(context.Background(), keys, DefaultGamma, 42, 10, pool); err != nil {
		t.Fatal(err)
	}
	pool.Close()
	TestBuildGoldenImages(t)
}

// TestBuildWarmAllocs is the allocation guard of a warm build: once an
// earlier build has released its key-peel buffers, a 2^17-key build
// allocates at most 1.5 MB (the image and the kernel's lists), not the
// 4.3 MB it took with fresh buffers. The minimum of five builds is
// taken, since a garbage collection may empty the buffer pool.
func TestBuildWarmAllocs(t *testing.T) {
	keys := randomKeys(1<<17, 1)
	pool := parallel.NewPool(2)
	defer pool.Close()
	build := func() {
		if _, err := BuildCtx(context.Background(), keys, DefaultGamma, 42, 10, pool); err != nil {
			t.Fatal(err)
		}
	}
	build()
	least := ^uint64(0)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		build()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 1536<<10 {
		t.Errorf("warm 2^17-key build allocated %d bytes, want ≤ 1.5 MB", least)
	}
}
