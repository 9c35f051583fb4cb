package mphf

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
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
