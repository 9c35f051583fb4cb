// Package faultinject provides named failpoints for chaos testing the
// peeling runtime. A failpoint is a named site compiled into production
// code; by default (no build tag) every call is a no-op that the
// compiler eliminates behind the Enabled constant, so the serving and
// peeling hot paths pay nothing. Building with -tags=faultinject turns
// the sites live: a test Arms a failpoint with a callback that may
// panic (exercising the pool's panic isolation), stall (exercising
// drain and cancellation), mutate the site's argument (corrupting an
// image mid-write), or return an error (simulating a crashed write or a
// failed probabilistic build attempt).
//
// Call sites guard every Fire with the constant so the disabled build
// is branch-free:
//
//	if faultinject.Enabled {
//	    faultinject.Fire(faultinject.PoolChunk, lo)
//	}
//
// Tests arm and disarm by name:
//
//	faultinject.Arm(faultinject.PoolChunk, faultinject.PanicAt(3, "boom"))
//	defer faultinject.Disarm(faultinject.PoolChunk)
//
// Callbacks receive the 1-based hit count (how many times this
// failpoint has fired since it was armed) and the site's argument, so
// "panic at round N" or "fail the first K attempts" are one-liners; the
// PanicAt / FailFirst / StallAt helpers cover the common shapes.
package faultinject

import (
	"time"
)

// The failpoints wired through the runtime. Names are free-form strings;
// these constants are the sites that exist today.
const (
	// PoolBarrier fires once per parallel-for barrier (Pool.For / Run /
	// RunRanges dispatch), on the submitting goroutine, with the range
	// length as argument. A panicking callback panics the submitter —
	// the job-boundary recovery path.
	PoolBarrier = "pool.barrier"
	// PoolChunk fires once per claimed chunk, on the claiming worker,
	// with the chunk's low index as argument, inside the chunk-boundary
	// recovery scope: a panicking callback exercises exactly the
	// "worker panics mid-peel" failure mode.
	PoolChunk = "pool.chunk"
	// MPHFAttempt fires once per MPHF build attempt with a *bool
	// argument; setting it forces the attempt to report a non-empty
	// 2-core, driving the seed-escalation retry policy.
	MPHFAttempt = "mphf.attempt"
	// BloomierAttempt is MPHFAttempt for static-map builds.
	BloomierAttempt = "bloomier.attempt"
	// ReconcileDecode fires before the reconciliation difference-table
	// decode with a *bool argument; setting it forces a decode-
	// incomplete failure, driving the headroom-escalation retry policy.
	ReconcileDecode = "iblt.reconcile"
	// LayoutWrite fires (via FireErr) after the image bytes are written
	// to the temporary file but before fsync/rename, with the *os.File
	// as argument: a callback that truncates or scribbles on the file
	// and returns an error simulates a crash mid-write. WriteFile
	// returns the error without renaming, leaving the temp file behind
	// exactly as a crash would.
	LayoutWrite = "layout.write"
	// ServingSwap fires at the head of StaticTable.SwapImage with the
	// candidate image bytes as argument; a callback that flips a byte
	// exercises the corrupt-image quarantine path.
	ServingSwap = "serving.swap"
	// ServerAccept fires (via FireErr) once per accepted connection in
	// the wire server's accept loop, with the remote address string as
	// argument: a returned error makes the server drop the connection
	// immediately, and a stalling callback delays accept — the
	// listener-level failure modes.
	ServerAccept = "server.accept"
	// ServerFrameTorn fires (via FireErr) in the server's frame writer
	// with the frame as argument, a net.Buffers of its header and
	// payload: a returned error makes the server write only the first
	// half of the frame's bytes and then kill the connection — exactly
	// what a crash mid-send looks like to the client, which must treat
	// the torn frame as connection loss.
	ServerFrameTorn = "server.frame.torn"
	// ServerHandlerPanic fires at the head of every request handler with
	// the op code as argument; a panicking callback exercises the
	// request-level panic isolation: the client gets a typed INTERNAL
	// reply, the connection and server survive, JobsPanicked increments.
	ServerHandlerPanic = "server.handler.panic"
	// ServerConnStall fires once per request frame read, on the
	// connection's read goroutine, with the frame length as argument; a
	// stalling callback simulates a slow or stuck client connection for
	// drain and deadline tests.
	ServerConnStall = "server.conn.stall"
)

// Callback is the armed action of a failpoint: hit is the 1-based count
// of fires since arming, arg is the site-specific argument documented on
// each failpoint name. A callback may panic, sleep, mutate arg, or
// return an error (only FireErr sites propagate it).
type Callback func(hit int64, arg any) error

// PanicAt returns a callback that panics with value v on the n-th hit
// and does nothing on every other hit.
func PanicAt(n int64, v any) Callback {
	return func(hit int64, _ any) error {
		if hit == n {
			panic(v)
		}
		return nil
	}
}

// FailFirst returns a callback that fails the first n hits: it returns
// err and, when the argument is a *bool (the forced-failure sites),
// sets it.
func FailFirst(n int64, err error) Callback {
	return func(hit int64, arg any) error {
		if hit > n {
			return nil
		}
		if fail, ok := arg.(*bool); ok {
			*fail = true
		}
		return err
	}
}

// StallAt returns a callback that sleeps for d on the n-th hit —
// a stalled worker or a slow write, for drain and timeout tests.
func StallAt(n int64, d time.Duration) Callback {
	return func(hit int64, _ any) error {
		if hit == n {
			time.Sleep(d)
		}
		return nil
	}
}
