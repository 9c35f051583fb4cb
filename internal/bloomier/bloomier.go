// Package bloomier implements a Bloomier-filter-style static function
// (Chazelle, Kilian, Rubinfeld, Tal — reference [4] of the paper): an
// immutable map from a fixed key set to values, stored in ~1.23 slots per
// key with O(1) lookups and no explicit key storage.
//
// Construction is pure peeling: keys are edges of a random 3-partite
// hypergraph over the slot array, and if the 2-core is empty the linear
// system "XOR of a key's 3 slots = value" is triangular in reverse peel
// order, so it is solved by back-substitution without Gaussian
// elimination. This is exactly the regime the paper analyzes — density
// 1/1.23 ≈ 0.813 < c*(2,3) ≈ 0.818 — and the same construction
// underlies Biff codes and XOR-based retrieval structures.
//
// Build-time and serve-time are split by the versioned flat layout
// (internal/layout): the builder back-substitutes straight into a
// contiguous sealed image, and Filter is a thin read-only view over
// such an image — the same lookup code path whether the image came from
// a fresh build, Open of marshaled bytes, or an mmap'd file.
//
// Lookups on keys outside the build set return arbitrary values (add a
// fingerprint to detect them if needed).
package bloomier

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/layout"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// DefaultGamma is the slots-per-key overhead, chosen just below the
// peeling threshold like the MPHF construction.
const DefaultGamma = 1.23

const arity = layout.Arity

// Filter is an immutable key → uint64 map built by Build: a read-only
// view over a flat layout image. Bytes serializes it with zero copies,
// and Open / FromImage reconstruct an identical filter from those
// bytes.
type Filter struct {
	im *layout.Image
}

// ErrBuildFailed is returned when peeling leaves a non-empty 2-core on
// every attempted seed, which with distinct keys is astronomically rare
// at γ = 1.23. Duplicate keys return ErrDuplicateKeys after one attempt
// instead (rejecting them costs one failed peel attempt). The error
// wraps ErrBuildFailed with the last attempt's survivor count ("N edges
// left in 2-core after attempt T"), the number to look at when tuning
// gamma or maxTries.
var ErrBuildFailed = errors.New("bloomier: construction failed on all attempts")

// ErrDuplicateKeys is returned, wrapped with one repeated key, when the
// key set has duplicates. It is core.ErrDuplicateKeys, as in internal/mphf.
var ErrDuplicateKeys = core.ErrDuplicateKeys

// Build constructs a filter mapping keys[i] → values[i]. Keys must be
// distinct (duplicates return ErrDuplicateKeys). gamma is the slot/key
// ratio (use DefaultGamma); a gamma outside [layout.MinGamma,
// layout.MaxGamma] = [1.1, 4], or a table of 2^32 or more slots, is an
// error (see layout.SubSize). maxTries bounds seed retries. The whole
// build path — hashing, the subround peel, and segment-parallel
// back-substitution — runs on the process-wide default pool; use
// BuildCtx to pin it to an explicit one. The resulting filter is
// identical either way and at every pool size.
//
//peelvet:deterministic
func Build(keys, values []uint64, gamma float64, seed uint64, maxTries int) (*Filter, error) {
	return BuildCtx(context.Background(), keys, values, gamma, seed, maxTries, parallel.Default())
}

// BuildCtx is Build with every construction phase — per-key edge
// hashing on each retry attempt, the peel, and the back-substitution —
// run on an explicit worker pool. The peel is core.PeelKeys, an
// Appendix B subround peel of the 3-partite key hypergraph in which
// every edge has a unique releaser (its endpoint in the subround's
// part), so its subround-major order and orientation are bit-stable and
// the resulting filter is byte-identical at every pool size. All
// per-build state is owned by the call, so many builds may run
// concurrently on one shared pool.
//
// Cancellation is cooperative, checked at every subround barrier of
// every attempt's peel and back-substitution sweep — a canceled build
// stops within one subround of extra work. On cancellation it returns
// (nil, ctx.Err()).
//
//peelvet:deterministic
func BuildCtx(ctx context.Context, keys, values []uint64, gamma float64, seed uint64, maxTries int, pool *parallel.Pool) (*Filter, error) {
	if len(keys) != len(values) {
		return nil, fmt.Errorf("bloomier: %d keys but %d values", len(keys), len(values))
	}
	m := len(keys)
	subSize, err := layout.SubSize(m, gamma)
	if err != nil {
		return nil, fmt.Errorf("bloomier: %w", err)
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
		im, left, err := buildAttempt(ctx, keys, values, attemptSeed, hseed, m, subSize, pool)
		if err != nil {
			return nil, err
		}
		if faultinject.Enabled {
			// Failpoint: setting the *bool forces this attempt to report
			// a non-empty 2-core, as an unlucky seed would.
			forceFail := false
			faultinject.Fire(faultinject.BloomierAttempt, &forceFail)
			if forceFail {
				im, left = nil, len(keys)
			}
		}
		if im != nil {
			return &Filter{im: im}, nil
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
		hseed[j] = rng.Mix64(attemptSeed ^ uint64(j+1)*0x94d049bb133111eb)
	}
	return
}

// buildAttempt peels the key hypergraph for one seed attempt
// (core.PeelKeys, which also rejects duplicate keys) and, on an empty
// 2-core, back-substitutes the slot values straight into a freshly
// allocated flat image — slots[v0] ^ slots[v1] ^ slots[v2] = value for
// every key — and seals it; a non-empty 2-core returns (nil, survivors,
// nil) for the retry loop. Back-substitution walks the peel's subrounds
// in reverse, the edges of one subround in parallel — sound because
// within a subround every peeled edge has a distinct free vertex and
// its non-free endpoints, which lie in other parts, finalize strictly
// later (see core.OrderedResult). ctx is checked at every subround
// barrier.
func buildAttempt(ctx context.Context, keys, values []uint64, attemptSeed uint64, hseed [arity]uint64, m, subSize int, pool *parallel.Pool) (*layout.Image, int, error) {
	hash := func(keys []uint64, edges []uint32) { layout.VertexTriples(hseed, subSize, keys, edges) }
	edges, ord, err := core.PeelKeys(ctx, keys, subSize, hash, pool)
	if err != nil {
		return nil, 0, err
	}
	defer ord.Release() // the sweep below is the last reader of edges and ord's segments
	if !ord.Empty() {
		return nil, ord.CoreEdges, nil
	}
	im := layout.NewBloomier(attemptSeed, hseed, m, subSize)
	slots := im.Slots
	// Reverse subround-major order: a subround-t edge's free vertex is
	// its endpoint at position p = (t−1) mod 3 (core.PeelKeys frees
	// subround t's edges through that part); its slot is still untouched
	// when the edge is processed, and the other two slots are final.
	for t := ord.Segments(); t >= 1; t-- {
		seg := ord.RoundSegment(t)
		p := (t - 1) % arity
		q, r := (p+1)%arity, (p+2)%arity
		if err := pool.ForCtx(ctx, len(seg), 1024, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				e := int(seg[i])
				vs := edges[3*e:]
				slots[vs[p]] = values[e] ^ slots[vs[q]] ^ slots[vs[r]]
			}
		}); err != nil {
			return nil, 0, err
		}
	}
	im.Marshal() // seal: checksum now covers the final slot array
	return im, 0, nil
}

// FromImage wraps an already-open flat image as a Filter view. The
// image must have been produced by this package's builder (or validated
// by layout.Open); its bytes must stay immutable for the life of the
// filter.
func FromImage(im *layout.Image) (*Filter, error) {
	if im == nil || im.Kind != layout.KindBloomier {
		return nil, fmt.Errorf("bloomier: image kind is not %v", layout.KindBloomier)
	}
	return &Filter{im: im}, nil
}

// Open validates data as a flat Bloomier image and returns a zero-copy
// read-only view over it: no array is decoded or copied, so data must
// stay immutable (and mapped) for the life of the filter. Corrupt or
// hostile images return layout.ErrBadImage; unaligned slices return
// layout.ErrUnaligned (repair with layout.Aligned).
func Open(data []byte) (*Filter, error) {
	im, err := layout.Open(data)
	if err != nil {
		return nil, err
	}
	return FromImage(im)
}

// Image returns the filter's flat image.
func (f *Filter) Image() *layout.Image { return f.im }

// Bytes returns the filter's sealed flat image without copying — the
// exact bytes Open accepts. The slice aliases the filter's slot array;
// treat it as read-only.
func (f *Filter) Bytes() []byte { return f.im.Bytes() }

// Seed returns the successful build attempt's seed.
func (f *Filter) Seed() uint64 { return f.im.Seed }

// Keys returns the number of keys the filter was built over.
func (f *Filter) Keys() int { return f.im.Keys }

// Lookup returns the value stored for key x (arbitrary for foreign keys).
func (f *Filter) Lookup(x uint64) uint64 {
	im := f.im
	vs := layout.VertexTriple(im.HSeed, im.SubSize, x)
	return im.Slots[vs[0]] ^ im.Slots[vs[1]] ^ im.Slots[vs[2]]
}

// LookupValue adapts Lookup to the static-function serving contract
// (repro.StaticFunc); it is identical to Lookup.
func (f *Filter) LookupValue(x uint64) uint64 { return f.Lookup(x) }

// Slots returns the size of the slot array (≈ γ × keys); total storage is
// 8·Slots() bytes.
func (f *Filter) Slots() int { return len(f.im.Slots) }
