package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro"
	"repro/internal/iblt"
	"repro/internal/mphf"
	"repro/internal/rng"
	"repro/internal/server"
)

// Workload geometry. Why each workload exists is in README.md.
const (
	reconcileKeys    = 20000 // keys per side of a reconcile request
	reconcileDiff    = 200   // keys only on one side, per side (1 %)
	reconcileRoom    = 1.5   // headroom sent with each reconcile request
	reconcileSets    = 16    // distinct reconcile requests, cycled
	decodeKeys       = 1 << 17
	decodeLoad       = 0.75 // keys per cell, below c*(2,3) ≈ 0.818
	decodeSketches   = 8
	buildKeys        = 1 << 17
	buildSets        = 4
	buildSample      = 4096 // keys whose MPHF indices are checked per reply
	serveKeys        = 1 << 20
	serveBatch       = 16
	serveRequests    = 4096 // distinct lookup requests, cycled
	serveRate        = 10000
	serveSwapEvery   = 5 * time.Second
	replayRequests   = 200  // requests per traced pass (closed-loop workloads)
	replayServeLoops = 2000 // requests per traced pass for serve
)

var workloadNames = []string{"reconcile", "decode", "build", "serve"}

// request is one generated request: its wire payload, how to check a
// reply, and the same work done in-process for the traced replay.
type request struct {
	op      byte
	payload []byte        // encode() taken once at set-up
	encode  func() []byte // server.Encode*Req over the inputs
	// parse is server.Parse*Result; verify checks its output exactly.
	parse  func(reply []byte) (any, error)
	verify func(v any) error
	// job does the request's work through the library's public calls,
	// recording a span around each under parent.
	job func(ctx context.Context, pool *repro.WorkerPool, tr *tracer, parent spanRef) error
}

// workload is a fixed traffic mix generated from the run's seed.
type workload struct {
	name   string
	rate   float64   // open loop: requests/s over all connections; 0 = closed loop
	reqs   []request // cycled in order
	swaps  []request // open loop only: install image B, then A, one every serveSwapEvery
	block  int       // requests per block of an untraced window; see blockStats
	replay int       // requests per traced pass
	serve  *serveInputs
}

// keyGen draws nonzero 64-bit keys; sets drawn from one generator are
// distinct with overwhelming probability.
type keyGen struct{ r *rng.RNG }

func newKeyGen(seed, tag uint64) keyGen { return keyGen{rng.NewStream(seed, tag)} }

func (g keyGen) keys(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		for out[i] == 0 {
			out[i] = g.r.Uint64()
		}
	}
	return out
}

// digest is an order-independent fingerprint of a key set.
type digest struct {
	n   int
	sum uint64
}

func digestOf(keys []uint64) digest {
	d := digest{n: len(keys)}
	for _, k := range keys {
		d.sum += rng.Mix64(k)
	}
	return d
}

// newWorkload generates the inputs of workload name from seed. rt runs
// the set-up work: sketch inserts, static-map builds, and the in-process
// first tries behind firstTry.
func newWorkload(ctx context.Context, name string, seed uint64, rt *repro.Runtime) (*workload, error) {
	w := &workload{name: name, block: blockRequests, replay: replayRequests}
	var err error
	switch name {
	case "reconcile":
		w.reqs, err = reconcileRequests(ctx, seed, rt)
	case "decode":
		w.reqs, err = decodeRequests(ctx, seed, rt)
	case "build":
		w.reqs, err = buildRequests(ctx, seed, rt)
	case "serve":
		w.serve, err = newServeInputs(ctx, seed, rt)
		if err == nil {
			// A block is a second of requests: 200 lookups would span
			// too few of /proc's 10ms CPU ticks.
			w.rate, w.block, w.replay = serveRate, serveRate, replayServeLoops
			w.reqs = w.serve.lookups(seed)
			w.swaps = []request{w.serve.swap(1), w.serve.swap(0)}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", name, err)
	}
	for i := range w.reqs {
		if w.reqs[i].payload == nil {
			w.reqs[i].payload = w.reqs[i].encode()
		}
	}
	return w, nil
}

// firstTry redraws seed until try(seed) succeeds, at most 8 times. A
// request whose first attempt fails costs the server a retry, so without
// this a workload's cost would depend on how many of its few distinct
// requests happen to need one.
func firstTry(seed uint64, try func(seed uint64) error) (uint64, error) {
	var err error
	for range 8 {
		if err = try(seed); err == nil {
			return seed, nil
		}
		seed = rng.Mix64(seed)
	}
	return 0, err
}

func reconcileRequests(ctx context.Context, seed uint64, rt *repro.Runtime) ([]request, error) {
	g := newKeyGen(seed, 1)
	reqs := make([]request, reconcileSets)
	for i := range reqs {
		common := g.keys(reconcileKeys - reconcileDiff)
		onlyL, onlyR := g.keys(reconcileDiff), g.keys(reconcileDiff)
		local := append(slices.Clone(common), onlyL...)
		remote := append(common, onlyR...)
		slices.Sort(onlyL)
		slices.Sort(onlyR)
		rseed, err := firstTry(seed+uint64(i), func(s uint64) error {
			return inJob(ctx, rt, func(ctx context.Context, pool *repro.WorkerPool) error {
				_, _, _, err := iblt.ReconcileCtx(ctx, local, remote, s, reconcileRoom, pool)
				return err
			})
		})
		if err != nil {
			return nil, err
		}
		check := func(l, r []uint64) error {
			if !slices.Equal(l, onlyL) || !slices.Equal(r, onlyR) {
				return fmt.Errorf("reconcile: got %d/%d differences, not the %d/%d injected", len(l), len(r), len(onlyL), len(onlyR))
			}
			return nil
		}
		reqs[i] = request{
			op:     server.OpReconcile,
			encode: func() []byte { return server.EncodeReconcileReq(0, rseed, reconcileRoom, local, remote) },
			parse:  func(p []byte) (any, error) { return server.ParseReconcileResult(p) },
			verify: func(v any) error {
				res := v.(*server.ReconcileResult)
				return check(res.OnlyLocal, res.OnlyRemote)
			},
			job: func(ctx context.Context, pool *repro.WorkerPool, tr *tracer, parent spanRef) error {
				var l, r []uint64
				if err := tr.do(parent, "iblt.reconcile", func() (err error) {
					l, r, _, err = iblt.ReconcileCtx(ctx, local, remote, rseed, reconcileRoom, pool)
					return err
				}); err != nil {
					return err
				}
				return check(l, r)
			},
		}
	}
	return reqs, nil
}

// newDecodeSketch returns the wire form of an IBLT holding keys. A
// sketch that happens not to peel would fail every request made from
// it, so set-up decodes each once and redraws the hash seed if needed.
func newDecodeSketch(ctx context.Context, keys []uint64, seed uint64, rt *repro.Runtime) ([]byte, error) {
	var wire []byte
	_, err := firstTry(seed, func(s uint64) error {
		t := iblt.New(int(float64(len(keys))/decodeLoad)+1, 3, s)
		err := inJob(ctx, rt, func(ctx context.Context, pool *repro.WorkerPool) error {
			return t.InsertAllCtx(ctx, keys, pool)
		})
		if err == nil {
			wire, err = t.MarshalBinary()
		}
		if err != nil {
			return err
		}
		res, err := rt.Decode(ctx, t)
		if err == nil && !res.Complete {
			err = fmt.Errorf("a %d-key sketch did not peel", len(keys))
		}
		return err
	})
	return wire, err
}

func decodeRequests(ctx context.Context, seed uint64, rt *repro.Runtime) ([]request, error) {
	g := newKeyGen(seed, 2)
	reqs := make([]request, decodeSketches)
	for i := range reqs {
		keys := g.keys(decodeKeys)
		wire, err := newDecodeSketch(ctx, keys, seed^uint64(i)<<40, rt)
		if err != nil {
			return nil, err
		}
		// The payload is deadline | length | sketch; the sketch bytes are
		// kept only inside it.
		payload := server.EncodeDecodeReq(0, wire)
		wire = payload[8:]
		want := digestOf(keys)
		check := func(added, removed []uint64, complete bool) error {
			if !complete || len(removed) != 0 || digestOf(added) != want {
				return fmt.Errorf("decode: recovered %d+%d keys (complete=%v), not the %d inserted", len(added), len(removed), complete, want.n)
			}
			return nil
		}
		reqs[i] = request{
			op:      server.OpDecode,
			payload: payload,
			encode:  func() []byte { return server.EncodeDecodeReq(0, wire) },
			parse:   func(p []byte) (any, error) { return server.ParseDecodeResult(p) },
			verify: func(v any) error {
				res := v.(*server.DecodeResult)
				return check(res.Added, res.Removed, res.Complete)
			},
			job: func(ctx context.Context, pool *repro.WorkerPool, tr *tracer, parent spanRef) error {
				var t iblt.Table
				if err := tr.do(parent, "iblt.unmarshal", func() error { return t.UnmarshalBinary(wire) }); err != nil {
					return err
				}
				var res *repro.IBLTParallelResult
				if err := tr.do(parent, "iblt.decode", func() (err error) {
					res, err = t.DecodeParallelFrontierCtx(ctx, pool)
					return err
				}); err != nil {
					return err
				}
				return check(res.Added, res.Removed, res.Complete)
			},
		}
	}
	return reqs, nil
}

// checkMPHF checks that f covers keys: the sampled keys map to distinct
// indices below len(keys).
func checkMPHF(f *repro.MPHF, keys, sample []uint64) error {
	if f.Keys() != len(keys) {
		return fmt.Errorf("build: image holds %d keys, want %d", f.Keys(), len(keys))
	}
	seen := make(map[int]bool, len(sample))
	for _, k := range sample {
		i := f.Lookup(k)
		if i < 0 || i >= len(keys) || seen[i] {
			return fmt.Errorf("build: key %#x maps to index %d (duplicate or out of range)", k, i)
		}
		seen[i] = true
	}
	return nil
}

func buildRequests(ctx context.Context, seed uint64, rt *repro.Runtime) ([]request, error) {
	g := newKeyGen(seed, 3)
	reqs := make([]request, buildSets)
	for i := range reqs {
		keys := g.keys(buildKeys)
		sample := keys[:buildSample]
		bseed, err := firstTry(seed+uint64(i), func(s uint64) error {
			return inJob(ctx, rt, func(ctx context.Context, pool *repro.WorkerPool) error {
				_, err := mphf.BuildCtx(ctx, keys, mphf.DefaultGamma, s, 1, pool)
				return err
			})
		})
		if err != nil {
			return nil, err
		}
		reqs[i] = request{
			op:     server.OpBuildMPHF,
			encode: func() []byte { return server.EncodeBuildReq(0, bseed, keys) },
			parse: func(p []byte) (any, error) {
				img, err := server.ParseImagePayload(p)
				if err != nil {
					return nil, err
				}
				return repro.OpenMPHF(img)
			},
			verify: func(v any) error { return checkMPHF(v.(*repro.MPHF), keys, sample) },
			job: func(ctx context.Context, pool *repro.WorkerPool, tr *tracer, parent spanRef) error {
				var f *repro.MPHF
				if err := tr.do(parent, "mphf.build", func() (err error) {
					f, err = mphf.BuildCtx(ctx, keys, mphf.DefaultGamma, bseed, 10, pool)
					return err
				}); err != nil {
					return err
				}
				return checkMPHF(f, keys, sample)
			},
		}
	}
	return reqs, nil
}

// serveInputs are the two static-map images the serve workload swaps
// between. Both map the same keys; image i maps key k to
// Mix64(k ^ salt[i]), so a lookup reply is checked from its generation
// alone: the server's generations count from 1, set-up installs image A
// (generation 1) and the swaps alternate B, A, ..., so odd generations
// are image A.
type serveInputs struct {
	keys  []uint64
	salt  [2]uint64
	swaps [2][]byte // OpSwapImage payloads; swaps[0] installs image A
	image [2][]byte // the sealed flat images, inside the swap payloads
	local *repro.StaticTable
}

func newServeInputs(ctx context.Context, seed uint64, rt *repro.Runtime) (*serveInputs, error) {
	s := &serveInputs{keys: newKeyGen(seed, 4).keys(serveKeys)}
	vals := make([]uint64, len(s.keys))
	for i := range s.image {
		s.salt[i] = rng.Mix64(seed ^ uint64(i+1)*0x5bd1e995)
		for j, k := range s.keys {
			vals[j] = s.value(i, k)
		}
		m, err := rt.BuildStaticMap(ctx, s.keys, vals, seed+uint64(i))
		if err != nil {
			return nil, err
		}
		// The payload is deadline | length | image. Its 8-byte header
		// keeps the image 8-byte aligned, as the zero-copy loader needs.
		s.swaps[i] = server.EncodeSwapReq(0, m.Bytes())
		s.image[i] = s.swaps[i][8:]
	}
	s.local = repro.NewStaticTable()
	if _, err := s.local.SwapImage(s.image[0], nil); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *serveInputs) value(image int, k uint64) uint64 { return rng.Mix64(k ^ s.salt[image]) }

// imageOf is the image generation gen serves.
func imageOf(gen uint64) int { return int(1 - gen%2) }

func (s *serveInputs) checkLookup(keys, vals []uint64, gen uint64) error {
	if gen == 0 || len(vals) != len(keys) {
		return fmt.Errorf("lookup: generation %d, %d values for %d keys", gen, len(vals), len(keys))
	}
	img := imageOf(gen)
	for i, k := range keys {
		if vals[i] != s.value(img, k) {
			return fmt.Errorf("lookup: key %#x in generation %d: value %#x is not image %c's", k, gen, vals[i], 'A'+img)
		}
	}
	return nil
}

// batches draws serveRequests lookup batches of serveBatch keys each.
func (s *serveInputs) batches(seed uint64) [][]uint64 {
	r := rng.NewStream(seed, 5)
	out := make([][]uint64, serveRequests)
	for i := range out {
		out[i] = make([]uint64, serveBatch)
		for j := range out[i] {
			out[i][j] = s.keys[r.Intn(len(s.keys))]
		}
	}
	return out
}

func (s *serveInputs) lookups(seed uint64) []request {
	reqs := make([]request, serveRequests)
	for i, keys := range s.batches(seed) {
		reqs[i] = request{
			op:     server.OpLookup,
			encode: func() []byte { return server.EncodeLookupReq(0, keys) },
			parse:  func(p []byte) (any, error) { return server.ParseLookupResult(p) },
			verify: func(v any) error {
				res := v.(*server.LookupResult)
				return s.checkLookup(keys, res.Values, res.Generation)
			},
			job: func(ctx context.Context, pool *repro.WorkerPool, tr *tracer, parent spanRef) error {
				out := make([]uint64, len(keys))
				var gen uint64
				tr.do(parent, "serving.lookup", func() error {
					gen, _ = s.local.LookupBatch(keys, out)
					return nil
				})
				return s.checkLookup(keys, out, gen)
			},
		}
	}
	return reqs
}

// swap is the request installing image i; its reply generation must be
// one that serves image i.
func (s *serveInputs) swap(i int) request {
	return request{
		op:      server.OpSwapImage,
		payload: s.swaps[i],
		encode:  func() []byte { return server.EncodeSwapReq(0, s.image[i]) },
		parse:   func(p []byte) (any, error) { return server.ParseUint64Payload(p) },
		verify: func(v any) error {
			if gen := v.(uint64); gen == 0 || imageOf(gen) != i {
				return fmt.Errorf("swap: image %c installed as generation %d", 'A'+i, gen)
			}
			return nil
		},
	}
}

// probeRequest is the tiny reconcile whose reply ends a server's set-up.
func probeRequest() request {
	return request{
		op:      server.OpReconcile,
		payload: server.EncodeReconcileReq(0, 1, reconcileRoom, []uint64{1, 2}, []uint64{1, 3}),
		parse:   func(p []byte) (any, error) { return server.ParseReconcileResult(p) },
		verify: func(v any) error {
			res := v.(*server.ReconcileResult)
			if !slices.Equal(res.OnlyLocal, []uint64{2}) || !slices.Equal(res.OnlyRemote, []uint64{3}) {
				return fmt.Errorf("probe reconcile: wrong difference %v/%v", res.OnlyLocal, res.OnlyRemote)
			}
			return nil
		},
	}
}
