package bloomier

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"

	"repro/internal/parallel"
)

// TestBuildGoldenImages pins the sha256 of sealed images at three key
// counts on pools of 1, 3 and 8 workers. The cross-pool tests only
// compare images within one build of the code; this test also fails
// when a change to the peel or the back-substitution sweep alters every
// image alike.
func TestBuildGoldenImages(t *testing.T) {
	golden := []struct {
		n    int
		want string
	}{
		{1000, "509dcfc35cc5fc234322d6f6aa43678fc23060b89f745fffc51e756c797c1f41"},
		{50000, "c195984daf69453c84734673123e41de70eecddbc25240e9dfc00af4c6907ca6"},
		{1 << 17, "e0abe4da4ade205e67d0eed062ada6fa41c165e7111306a7d995c7d172df1fef"},
	}
	for _, workers := range []int{1, 3, 8} {
		pool := parallel.NewPool(workers)
		for _, g := range golden {
			keys, values := buildInputs(g.n, 2014)
			f, err := BuildCtx(context.Background(), keys, values, DefaultGamma, 42, 10, pool)
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
	keys, values := buildInputs(1<<18, 7)
	pool := parallel.NewPool(2)
	if _, err := BuildCtx(context.Background(), keys, values, 1.1, 42, 1, pool); !errors.Is(err, ErrBuildFailed) {
		t.Fatalf("γ=1.1: err = %v, want ErrBuildFailed", err)
	}
	if _, err := BuildCtx(context.Background(), keys, values, DefaultGamma, 42, 10, pool); err != nil {
		t.Fatal(err)
	}
	pool.Close()
	TestBuildGoldenImages(t)
}
