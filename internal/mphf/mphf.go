// Package mphf builds minimal perfect hash functions with the BDZ
// construction (Botelho-Pagh-Ziviani), the classic "peeling to an empty
// 2-core" application: keys become edges of a random 3-partite 3-uniform
// hypergraph over ~1.23·m vertices, the graph is peeled (k = 2), and g
// values are assigned in reverse peel order so that every key selects a
// distinct vertex. Construction succeeds on the first try w.h.p. because
// the edge density 1/γ = 1/1.23 ≈ 0.813 sits below the paper's threshold
// c*(2,3) ≈ 0.818.
//
// Build-time and serve-time are split by the versioned flat layout
// (internal/layout): the builder writes its g values, used bitmap, and
// rank directory directly into a contiguous sealed image, and MPHF is a
// thin read-only view over such an image — the same lookup code path
// whether the image came from a fresh build, Open of marshaled bytes,
// or an mmap'd file.
package mphf

import (
	"context"
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/layout"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// DefaultGamma is the standard vertex/key ratio: edge density 1/1.23 is
// just below c*(2,3) ≈ 0.818, so peeling succeeds w.h.p.
const DefaultGamma = 1.23

// arity is fixed: BDZ uses 3 hashes (γ would need to exceed 1/0.772 ≈ 1.295
// table growth for r = 4 with no lookup benefit).
const arity = layout.Arity

// usedMark flags a g byte assigned by the sweep until the used bitmap is
// built from the marks; g values themselves are below arity.
const usedMark = 0x80

// MPHF is an immutable minimal perfect hash function over the key set it
// was built from: Lookup maps each build key to a distinct value in
// [0, Keys()); unknown keys map to arbitrary values (add an external
// fingerprint if membership matters). It is a read-only view over a
// flat layout image — Bytes serializes it with zero copies, and Open /
// FromImage reconstruct an identical function from those bytes.
type MPHF struct {
	im *layout.Image
}

// ErrBuildFailed is returned when every seed attempt left a non-empty
// 2-core, which for distinct keys at γ ≥ 1.23 is astronomically
// unlikely. Duplicate keys return ErrDuplicateKeys after one attempt
// instead (rejecting them costs one failed peel attempt, not a sort of
// every build's keys). The error wraps ErrBuildFailed with the last
// attempt's survivor count ("N edges left in 2-core after attempt T"),
// the number to look at when tuning gamma or maxTries.
var ErrBuildFailed = errors.New("mphf: construction failed on all attempts")

// ErrDuplicateKeys is returned, wrapped with one repeated key, when the
// key set has duplicates. It is core.ErrDuplicateKeys, as in internal/bloomier.
var ErrDuplicateKeys = core.ErrDuplicateKeys

// Build constructs an MPHF for the distinct keys using the given
// vertex/key ratio gamma (use DefaultGamma) and an initial seed; it
// retries with derived seeds up to maxTries times (10 is plenty). A
// gamma outside [layout.MinGamma, layout.MaxGamma] = [1.1, 4], or a
// table of 2^32 or more vertices, is an error (see layout.SubSize).
// The whole build path — hashing, the subround peel, and the
// segment-parallel g-value assignment — runs on the process-wide
// default pool; use BuildCtx to pin it to an explicit one. The
// resulting function is identical either way and at every pool size
// (the peel is bit-stable across worker counts).
//
//peelvet:deterministic
func Build(keys []uint64, gamma float64, seed uint64, maxTries int) (*MPHF, error) {
	return BuildCtx(context.Background(), keys, gamma, seed, maxTries, parallel.Default())
}

// BuildCtx is Build with every construction phase — per-key edge
// hashing on each retry attempt, the peel, and the g-value assignment —
// run on an explicit worker pool. The peel is core.PeelKeys, an
// Appendix B subround peel of the 3-partite key hypergraph in which
// every edge has a unique releaser (its endpoint in the subround's
// part), so its subround-major order and orientation, and the resulting
// function, are identical at every pool size. The assignment processes
// the subrounds in reverse with full parallelism inside each one (every
// peeled edge of a subround has a distinct free vertex, and its other
// endpoints finalize strictly later) and no atomic: it marks each
// assigned g byte, and one word-parallel pass then builds the used
// bitmap from the marks. All per-build state is owned by the call, so
// many builds may run concurrently on one shared pool.
//
// Cancellation is cooperative, checked at every subround barrier of
// every attempt's peel and assignment sweep (and at the phase barriers
// between hashing, peel set-up, peel, and assignment) — a canceled
// build stops within one subround of extra work, not one phase. On
// cancellation it returns (nil, ctx.Err()).
//
//peelvet:deterministic
func BuildCtx(ctx context.Context, keys []uint64, gamma float64, seed uint64, maxTries int, pool *parallel.Pool) (*MPHF, error) {
	m := len(keys)
	subSize, err := layout.SubSize(m, gamma)
	if err != nil {
		return nil, fmt.Errorf("mphf: %w", err)
	}
	if maxTries <= 0 {
		maxTries = 10
	}
	survivors := 0
	for try := 0; try < maxTries; try++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		attemptSeed, hseed := attemptSeeds(seed, try)
		im, left, err := buildAttempt(ctx, keys, attemptSeed, hseed, m, subSize, pool)
		if err != nil {
			return nil, err
		}
		if faultinject.Enabled {
			// Failpoint: setting the *bool forces this attempt to report
			// a non-empty 2-core, as an unlucky seed would.
			forceFail := false
			faultinject.Fire(faultinject.MPHFAttempt, &forceFail)
			if forceFail {
				im, left = nil, len(keys)
			}
		}
		if im != nil {
			return &MPHF{im: im}, nil
		}
		survivors = left
	}
	return nil, fmt.Errorf("%w: %d edges left in 2-core after attempt %d", ErrBuildFailed, survivors, maxTries)
}

// attemptSeeds derives attempt try's seed and the three vertex-hash
// seeds stored in the image header.
func attemptSeeds(seed uint64, try int) (attemptSeed uint64, hseed [arity]uint64) {
	attemptSeed = rng.Mix64(seed + uint64(try)*0x9e3779b97f4a7c15)
	for j := 0; j < arity; j++ {
		hseed[j] = rng.Mix64(attemptSeed ^ uint64(j+1)*0xbf58476d1ce4e5b9)
	}
	return
}

// buildAttempt peels the key hypergraph for one seed attempt
// (core.PeelKeys, which also rejects duplicate keys) and, on an empty
// 2-core, writes the g values, used bitmap, and rank directory into a
// freshly allocated flat image and seals it; a non-empty 2-core returns
// (nil, survivors, nil) for the retry loop. ctx is checked at every
// subround barrier.
func buildAttempt(ctx context.Context, keys []uint64, attemptSeed uint64, hseed [arity]uint64, m, subSize int, pool *parallel.Pool) (*layout.Image, int, error) {
	hash := func(keys []uint64, edges []uint32) { layout.VertexTriples(hseed, subSize, keys, edges) }
	edges, ord, err := core.PeelKeys(ctx, keys, subSize, hash, pool)
	if err != nil {
		return nil, 0, err
	}
	defer ord.Release() // the sweep below is the last reader of edges and ord's segments
	if !ord.Empty() {
		return nil, ord.CoreEdges, nil
	}

	// The serve-time arrays are written straight into the flat image —
	// there is no separate in-memory representation to convert from.
	im := layout.NewMPHF(attemptSeed, hseed, m, subSize)

	// Reverse subround-major order: when edge e of subround t is
	// processed, its free vertex v is its endpoint at position
	// p = (t−1) mod 3 (core.PeelKeys frees subround t's edges through
	// that part), and the other two endpoints' g values are final —
	// within a subround every peeled edge has a distinct free vertex,
	// and non-free endpoints lie in other parts and free edges only in
	// strictly later subrounds (see core.OrderedResult) — so the edges
	// of one subround are assigned concurrently:
	// g[v] = (p − g[u1] − g[u2]) mod 3 makes the lookup rule
	// (g[v0]+g[v1]+g[v2]) mod 3 == p hold. A g value is 0, 1 or 2, so
	// the sweep marks each assigned vertex with the byte's top bit, and
	// a pass over whole bitmap words then moves the marks into the used
	// bitmap; no word is shared between writers. Unassigned vertices
	// keep 0.
	gv, used := im.G, im.Used
	for t := ord.Segments(); t >= 1; t-- {
		seg := ord.RoundSegment(t)
		p := (t - 1) % arity
		q, r := (p+1)%arity, (p+2)%arity
		if err := pool.ForCtx(ctx, len(seg), 1024, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				vs := edges[3*int(seg[i]):]
				sum := int(gv[vs[q]]&^usedMark) + int(gv[vs[r]]&^usedMark)
				gv[vs[p]] = uint8((p-sum+2*arity)%arity) | usedMark
			}
		}); err != nil {
			return nil, 0, err
		}
	}
	if err := pool.ForCtx(ctx, len(used), 64, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			g := gv[64*i : min(64*i+64, len(gv))]
			var w uint64
			for b, x := range g {
				w |= uint64(x>>7) << b
				g[b] = x &^ usedMark
			}
			used[i] = w
		}
	}); err != nil {
		return nil, 0, err
	}

	// Rank directory: prefix popcounts per word for O(1) rank.
	rank := im.Rank
	rank[0] = 0
	for i, w := range used {
		rank[i+1] = rank[i] + uint32(bits.OnesCount64(w))
	}
	im.Marshal() // seal: checksum now covers the final arrays
	return im, 0, nil
}

// FromImage wraps an already-open flat image as an MPHF view. The image
// must have been produced by this package's builder (or validated by
// layout.Open); its bytes must stay immutable for the life of the
// function.
func FromImage(im *layout.Image) (*MPHF, error) {
	if im == nil || im.Kind != layout.KindMPHF {
		return nil, fmt.Errorf("mphf: image kind is not %v", layout.KindMPHF)
	}
	return &MPHF{im: im}, nil
}

// Open validates data as a flat MPHF image and returns a zero-copy
// read-only view over it: no array is decoded or copied, so data must
// stay immutable (and mapped) for the life of the function. Corrupt or
// hostile images return layout.ErrBadImage; unaligned slices return
// layout.ErrUnaligned (repair with layout.Aligned).
func Open(data []byte) (*MPHF, error) {
	im, err := layout.Open(data)
	if err != nil {
		return nil, err
	}
	return FromImage(im)
}

// Image returns the function's flat image.
func (f *MPHF) Image() *layout.Image { return f.im }

// Bytes returns the function's sealed flat image without copying — the
// exact bytes Open accepts. The slice aliases the function's serve
// arrays; treat it as read-only.
func (f *MPHF) Bytes() []byte { return f.im.Bytes() }

// Seed returns the successful build attempt's seed.
func (f *MPHF) Seed() uint64 { return f.im.Seed }

// Keys returns the number of keys the function was built over.
func (f *MPHF) Keys() int { return f.im.Keys }

// Vertices returns the internal table size (≈ γ·m); the bits-per-key cost
// is 2·Vertices()/Keys() plus the rank directory.
func (f *MPHF) Vertices() int { return f.im.Vertices() }

// Lookup returns the index in [0, Keys()) assigned to key x. For keys not
// in the build set the result is arbitrary (but in range for any x whose
// selected vertex happens to be used; otherwise it is clamped).
func (f *MPHF) Lookup(x uint64) int {
	im := f.im
	vs := layout.VertexTriple(im.HSeed, im.SubSize, x)
	p := (int(im.G[vs[0]]) + int(im.G[vs[1]]) + int(im.G[vs[2]])) % arity
	v := vs[p]
	// rank(v): used vertices strictly before v, plus clamping for
	// foreign keys that select an unused vertex.
	word, bit := v>>6, uint(v)&63
	r := int(im.Rank[word]) + bits.OnesCount64(im.Used[word]&((1<<bit)-1))
	if r >= im.Keys {
		r = im.Keys - 1
	}
	return r
}

// LookupValue adapts Lookup to the uint64-valued static-function
// serving contract (repro.StaticFunc): the assigned index as a uint64.
func (f *MPHF) LookupValue(x uint64) uint64 { return uint64(f.Lookup(x)) }
