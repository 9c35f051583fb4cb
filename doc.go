// Package repro is a production-quality Go reproduction of
//
//	Jiang, Mitzenmacher, Thaler — "Parallel Peeling Algorithms" (SPAA 2014)
//
// It provides random r-uniform hypergraph generation, sequential and
// round-synchronous parallel peeling to the k-core (plus the Appendix B
// subtable variant), the idealized recurrences and threshold formulas the
// paper analyzes, and the peeling-based data structures the paper
// motivates: Invertible Bloom Lookup Tables (with serial and parallel
// recovery), Biff-style erasure codes, BDZ minimal perfect hashing,
// XORSAT solving, and cuckoo placement.
//
// # Quick start
//
//	rt := repro.NewRuntime(repro.RuntimeOptions{})
//	defer rt.Shutdown(context.Background())
//	g := repro.NewUniformHypergraph(1_000_000, 700_000, 4, 42) // c = 0.7
//	res, err := rt.Peel(context.Background(), g, 2, repro.PeelOptions{})
//	if err != nil {
//		log.Fatal(err)
//	}
//	fmt.Println(res.Rounds, res.Empty()) // ≈13 rounds, empty 2-core
//
// The headline results:
//
//   - Below the threshold density c*(k,r), parallel peeling empties the
//     k-core in (1/log((k−1)(r−1)))·log log n + O(1) rounds (Theorems 1-2).
//   - Above it, reaching the (non-empty) k-core takes Ω(log n) rounds
//     (Theorem 3).
//   - Peeling r subtables in serial subrounds — the trick that stops a
//     parallel implementation from peeling an item twice — costs only a
//     log(r−1)/log φ_{r−1} factor in subrounds, not a factor of r
//     (Theorems 4/7).
//
// # Runtime
//
// The serving surface is the context-first Runtime: NewRuntime starts a
// persistent worker pool with optional admission control (MaxJobs), and
// every workload is a method on it — Peel, PeelSubtables, Decode,
// BuildMPHF, BuildStaticMap, Reconcile, EncodeErasure, DecodeErasure,
// plus Go for custom jobs. Each method admits the request as a job,
// pins all of its parallelism to the shared pool, and honors context
// cancellation at the round/subround barriers of the underlying peeling
// process — the paper's O(log log n) round structure means a job crosses
// a barrier many times, so one check per barrier aborts a canceled job
// within a single round of extra work. Shutdown stops admission, drains
// in-flight jobs (bounded by the caller's ctx), and releases the
// workers; Stats exposes queue depth, helper occupancy, and
// admitted/rejected/canceled job counters for backpressure decisions.
//
//	rt := repro.NewRuntime(repro.RuntimeOptions{MaxJobs: 32})
//	defer rt.Shutdown(context.Background())
//	res, err := rt.Decode(ctx, table)
//
// Under the hood every parallel peel — k-core, ordered, subtable, IBLT
// decode, and erasure recovery — runs on one round kernel (core.Kernel),
// which owns the round and subround loop, the scan policy, the
// candidate lists, the barrier's cancellation check, and the round
// accounting; each peel supplies only its peel action, and either its
// first candidate lists, listing each item at most once over the peel,
// or the default seed of every item with duplicate suppression. The subround
// peels (subtable, key, IBLT decode, and erasure recovery) share one
// argument: every edge meets subtable j in exactly one item, its unique
// releaser, so subround j writes no subtable-j state but its
// releasers' own, needs no claims or atomic reads, and peels the same
// set at every worker count. Nor do they need atomic writes: each
// subround's scan logs its releases, and then one owner per other
// subtable applies them with plain writes, appending its own
// subtable's items to their list without an atomic either. An erasure
// code's check cells therefore form r subtables of ⌊cells/r⌋ cells; the
// cells mod r tail cells are never written, and NewErasureCode panics
// when cells < r. The key peel, the subtable peel and erasure recovery
// list each vertex or cell at most once: a degree or count only falls,
// so an item is listed when it first reaches a peelable value, by the
// set-up pass or by its subtable's owner. So they append with no branch
// per item (core.Appender, Kernel.Reserve): every item the owner
// touches is written to the list's next slot, which is kept only if
// the item is listed, and the owner pass's random loads stay in flight
// together. The IBLT decoder, whose cells can turn peelable twice,
// keeps a pending mark per cell (Kernel.Append). The kernel runs on
// the Runtime's pool (internal/parallel.Pool): workers stay alive
// across rounds, each round's phases are dispatched as chunked
// parallel-for batches, and per-worker frontier shards — indexed by the
// pool's worker IDs — replace locked appends, so the small-frontier tail
// rounds that dominate the O(log log n) bound pay neither goroutine
// spawns nor mutex traffic.
//
// The runtime is multi-tenant: the pool is shared by any number of
// concurrent jobs. Batch dispatch rotates across helper channels so
// concurrent small batches — tail rounds of simultaneous decodes —
// spread over distinct helpers; all decode and build paths keep working
// state per call, so a server runs many requests on one pool with no
// per-request pools, goroutine spawns, or locks in the round loops; and
// the claim-based barrier makes nested parallel-for submission from
// inside a pool batch deadlock-free, so jobs may compose builders and
// peelers freely. The context-free conveniences (BuildMPHF,
// BuildStaticMap, ReconcileSets, ...) run on the process-wide default
// pool, BuildMPHF and ReconcileSets through the package-default Runtime
// (DefaultRuntime); servers call the Runtime methods instead.
//
// The data-structure builders consume a peel order and an edge → vertex
// orientation, produced by the subround key peel (core.PeelKeys): the
// Appendix B process on the 3-partite key hypergraph, run with only a
// live degree and a sum of live edge ids per vertex, as in IBLT
// decoding. Every edge meets each subround's part in exactly one
// vertex, so it has a unique releaser, and no claim is needed. Each
// subround's scan writes its releases straight into the subround-major
// peel order, at the offsets of the candidate chunks that freed them,
// and packs them in chunk order at the barrier, so the order is
// bit-identical at every worker count and needs no sort. An edge freed
// in subround t was freed by its endpoint in part (t−1) mod 3, so the
// peel stores no free vertex and no per-edge subround: the segment
// names both. Reverse subround-major order is a valid
// elimination order — within a subround every peeled edge has a
// distinct free vertex, and non-free endpoints lie in other parts and
// finalize strictly later — so the MPHF g-value assignment and the
// Bloomier back-substitution run subround-parallel too, with no atomic
// (the MPHF sweep marks assigned g bytes and builds its used bitmap
// from the marks in one word-parallel pass): no serial phase remains
// in BuildMPHF/BuildStaticMap, and a canceled build stops at the next
// subround barrier rather than the next phase. The builders hash keys a
// chunk at a time (layout.VertexTriples), and release each attempt's
// peel (core.KeyPeel.Release) once its sweep is done, so the next build
// reuses the edge list, vertex state and peel order instead of
// allocating them afresh. Failed builds report
// the last attempt's 2-core survivor count through ErrMPHFBuildFailed /
// ErrStaticMapBuildFailed.
//
// # Failure policy and fault tolerance
//
// A panic inside any job — a worker claiming chunks mid-peel, a Group
// job, a Runtime job — is recovered at the chunk and job boundaries and
// reported as an error matching ErrJobPanicked; the *PanicError carries
// the panic value and captured stack, the barrier still completes, and
// the pool stays healthy for concurrent and subsequent jobs. Panics are
// counted in Stats().JobsPanicked.
//
// RuntimeOptions.Policy configures what the Runtime does about
// failures, and WithPolicy derives a handle with a different policy over
// the same pool and counters (zero Policy = no timeout, no retries):
//
//	rt := repro.NewRuntime(repro.RuntimeOptions{
//	    Workers: 8,
//	    Policy:  repro.Policy{JobTimeout: time.Second, BuildRetries: 2},
//	})
//	f, err := rt.BuildMPHF(ctx, keys, seed)            // retried on ErrBuildFailed
//	_, _, _, err = rt.WithPolicy(repro.Policy{ReconcileRetries: 3}).
//	    Reconcile(ctx, local, remote, seed, 1.5)       // headroom escalates per retry
//
// JobTimeout applies a default deadline to jobs whose caller context has
// none (an explicit caller deadline always wins). BuildRetries re-runs a
// whole failed BuildMPHF/BuildStaticMap with a deterministically
// escalated seed — only on the probabilistic ErrMPHFBuildFailed /
// ErrStaticMapBuildFailed, never on cancellation or panics.
// ReconcileRetries re-runs an undecodable reconciliation with the
// difference-table headroom raised by HeadroomStep per attempt (capped
// at MaxHeadroom), accumulating wire cost across attempts.
//
// The failure paths themselves are tested by fault injection: named
// failpoints (internal/faultinject) compiled to no-ops by default and
// armed under -tags=faultinject let the chaos suite panic a worker
// mid-peel under a serving load, tear an image mid-swap, and force
// build and decode failures; see the Robustness section of README.md.
//
// # Offline build, online serve
//
// The built static functions separate build time from serve time. Every
// MPHF and StaticMap is backed by a single versioned flat image
// (internal/layout): a 64-byte checksummed header (magic, kind, seed,
// hash seeds, geometry) followed by the 8-aligned little-endian value
// arrays. Bytes returns the image; OpenMPHF/OpenStaticMap validate one
// strictly — magic, version, kind, geometry bounded against the payload
// before any size arithmetic, exact length, alignment, checksum — and
// return a zero-copy view whose lookup arrays alias the input bytes, so
// an os.ReadFile'd or mmap'd image serves lookups with no decode step
// and no allocation beyond the handle. Built and loaded functions run
// the same lookup code over the same layout, so a loaded image answers
// byte-for-byte like the build that produced it; builds are
// byte-identical at every worker count, so images are reproducible
// artifacts. Hostile images are rejected with an error, never a panic
// (FuzzLayoutOpen). cmd/peeltool build/dump/query is the command-line
// face of this path.
//
// Serving under rebuild is handled by StaticTable: a handle holding the
// current generation of a static function, swapped atomically by Swap
// (or Runtime.RebuildStaticMap / Runtime.RebuildMPHF, which run the
// rebuild as an ordinary pool job concurrent with serving). Lookup and
// LookupBatch are lock-free — an atomic generation resolve plus a
// pin/unpin on sharded padded counters — and swaps reclaim a retired
// generation (running its release hook, e.g. munmap) only after every
// in-flight lookup pinning it has drained, so readers never observe a
// torn or unmapped image and never block: epoch-based reclamation with
// a generation counter, exactly the offline-build/fleet-serve pattern.
// SwapImage installs a raw image only after validating it — a corrupt
// or truncated candidate is quarantined (counted by SwapRejections)
// while the previous generation keeps serving — and layout.WriteFile
// persists images crash-safely (temp file, fsync, rename, directory
// fsync), so the file at the target path is always a complete image.
//
// The whole serving surface is also reachable over TCP: internal/server
// (deployed as cmd/peelserved) fronts a Runtime with a length-prefixed
// wire protocol — per-request deadlines that become handler contexts,
// load shedding through Runtime.TryGo with typed OVERLOADED replies and
// retry-after hints, per-connection and per-request panic isolation,
// frame bounds validated before allocation, and SIGTERM-triggered
// graceful drain (GOAWAY, in-flight requests finish, every accepted
// request gets exactly one reply). internal/server/client is the
// matching client: one multiplexed connection, deadline propagation,
// and backoff retries only where safe (shed requests always, ambiguous
// connection loss only for idempotent ops). See the "Serving over the
// network" section of README.md for the protocol and failure table.
//
// Instance construction is parallel too, and deterministically so: edge
// sampling draws each fixed-size chunk of edges from its own RNG stream
// keyed by chunk index, and the CSR incidence index is built with a
// stable parallel counting sort — a given seed yields a bit-identical
// graph at every worker count. (Adopting chunk-keyed sampling changed
// which graph a seed denotes relative to earlier revisions, a one-time
// mapping change; all statistical results are unaffected.)
//
// The concurrency and safety disciplines above are not conventions but
// machine-checked invariants: cmd/peelvet (internal/analysis) runs five
// custom analyzers — nospawn (no raw go statements outside
// internal/parallel), ctxbarrier (round loops over pool barriers consult
// their ctx; non-Ctx wrappers delegate instead of duplicating loops),
// nounsafe (unsafe confined to internal/layout), nopanic (library code
// returns wrapped sentinel errors unless a panic guard is documented),
// and atomicshard (no mixed atomic/plain access to a scalar). CI runs
// peelvet over the default and faultinject builds, and contributions are
// expected to keep it clean: a deliberate exception needs an inline
// "//peelvet:allow <analyzer> -- <reason>" suppression, whose reason
// clause is mandatory. See the "Static analysis" section of README.md.
//
// The cmd/ binaries regenerate every table and figure in the paper's
// evaluation; see DESIGN.md for the experiment index and EXPERIMENTS.md
// for measured-vs-paper results.
package repro
