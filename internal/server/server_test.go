package server

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"testing"
	"time"

	"repro"
	"repro/internal/iblt"
	"repro/internal/rng"
)

// startServer runs a Server on an ephemeral port; the cleanup drains it
// and asserts Serve exited clean and the one-reply-per-request
// invariant held.
func startServer(t *testing.T, opts Options) (*Server, string) {
	t.Helper()
	srv := New(opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, ErrServerClosed) {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
		st := srv.Stats()
		if st.RequestsAccepted != st.RepliesSent {
			t.Errorf("reply invariant: accepted %d != replies %d", st.RequestsAccepted, st.RepliesSent)
		}
	})
	return srv, ln.Addr().String()
}

// dialRaw opens a raw protocol connection (preface already sent).
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if _, err := nc.Write([]byte(Preface)); err != nil {
		t.Fatalf("preface: %v", err)
	}
	t.Cleanup(func() { nc.Close() })
	return nc
}

// appendFrame appends one encoded frame to buf and returns it: a
// client's request, or the reply the server's writer should send.
func appendFrame(buf []byte, typ byte, id uint64, payload []byte) []byte {
	return append(appendFrameHeader(buf, typ, id, len(payload)), payload...)
}

func testKeys(n int, seed uint64) []uint64 {
	gen := rng.New(seed)
	keys := make([]uint64, n)
	for i := range keys {
		for keys[i] == 0 {
			keys[i] = gen.Uint64()
		}
	}
	return keys
}

// expectClosed asserts the server hangs up (EOF / reset) without
// sending anything further.
func expectClosed(t *testing.T, nc net.Conn) {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	var b [1]byte
	if _, err := nc.Read(b[:]); err == nil {
		t.Fatalf("server kept talking (got byte %#x), want connection close", b[0])
	} else if errors.Is(err, io.EOF) {
		return
	}
	// A reset is also a close; a timeout is a failure.
	if ne, ok := nc.(*net.TCPConn); ok {
		_ = ne
	}
}

// TestMalformedFramesRejectedBeforeWork drives every frame-level
// protocol violation and asserts each kills its connection and is
// counted — and that the oversized length is refused from the 4-byte
// prefix, before the server would allocate the claimed payload.
func TestMalformedFramesRejectedBeforeWork(t *testing.T) {
	srv, addr := startServer(t, Options{Workers: 2, MaxFrame: 1 << 16})

	cases := map[string]func(t *testing.T){
		"bad preface": func(t *testing.T) {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer nc.Close()
			nc.Write([]byte("NOTPEELS"))
			expectClosed(t, nc)
		},
		"length below header": func(t *testing.T) {
			nc := dialRaw(t, addr)
			var hdr [4]byte
			binary.LittleEndian.PutUint32(hdr[:], 4)
			nc.Write(hdr[:])
			expectClosed(t, nc)
		},
		"oversized length": func(t *testing.T) {
			nc := dialRaw(t, addr)
			var hdr [4]byte
			binary.LittleEndian.PutUint32(hdr[:], 1<<20) // above MaxFrame: refused unread
			nc.Write(hdr[:])
			expectClosed(t, nc)
		},
		"unknown op": func(t *testing.T) {
			nc := dialRaw(t, addr)
			nc.Write(appendFrame(nil, 0x7f, 1, []byte{0, 0, 0, 0}))
			expectClosed(t, nc)
		},
		"zero request id": func(t *testing.T) {
			nc := dialRaw(t, addr)
			nc.Write(appendFrame(nil, OpLookup, 0, []byte{0, 0, 0, 0}))
			expectClosed(t, nc)
		},
	}
	n := int64(0)
	for name, run := range cases {
		t.Run(name, run)
		n++
		if got := srv.Stats().FramesRejected; got != n {
			t.Fatalf("after %q: FramesRejected = %d, want %d", name, got, n)
		}
	}
	if got := srv.Stats().RequestsAccepted; got != 0 {
		t.Fatalf("RequestsAccepted = %d for pure protocol garbage, want 0", got)
	}
}

// readReply reads frames until a non-GOAWAY one arrives.
func readReply(t *testing.T, nc net.Conn) (byte, uint64, []byte) {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(20 * time.Second))
	for {
		typ, id, payload, err := readFrame(nc, DefaultMaxFrame)
		if err != nil {
			t.Fatalf("read reply: %v", err)
		}
		if typ != TypeGoAway {
			return typ, id, payload
		}
	}
}

// TestRequestDeadlineEnforced: a heavy reconcile under a 1ms wire
// deadline must come back DEADLINE_EXCEEDED — the deadline field became
// the handler's context and the peel aborted at a barrier.
func TestRequestDeadlineEnforced(t *testing.T) {
	_, addr := startServer(t, Options{Workers: 2})
	nc := dialRaw(t, addr)

	local := testKeys(150_000, 1)
	remote := testKeys(150_000, 2)
	req := EncodeReconcileReq(1 /* ms */, 7, 1.5, local, remote)
	if _, err := nc.Write(appendFrame(nil, OpReconcile, 42, req)); err != nil {
		t.Fatalf("write: %v", err)
	}
	typ, id, payload := readReply(t, nc)
	if typ != TypeError || id != 42 {
		t.Fatalf("reply typ=%#x id=%d, want ERROR id=42", typ, id)
	}
	e, err := ParseError(payload)
	if err != nil {
		t.Fatalf("parse error payload: %v", err)
	}
	if e.Code != CodeDeadlineExceeded {
		t.Fatalf("code = %v, want DEADLINE_EXCEEDED", e.Code)
	}
}

// TestShortPayloadGetsTypedReply: a well-framed request whose payload
// cannot even hold the deadline field is an accepted request — it gets
// its one BAD_REQUEST reply, not a dropped connection.
func TestShortPayloadGetsTypedReply(t *testing.T) {
	_, addr := startServer(t, Options{Workers: 1})
	nc := dialRaw(t, addr)
	nc.Write(appendFrame(nil, OpLookup, 9, []byte{1, 2}))
	typ, id, payload := readReply(t, nc)
	if typ != TypeError || id != 9 {
		t.Fatalf("reply typ=%#x id=%d, want ERROR id=9", typ, id)
	}
	e, err := ParseError(payload)
	if err != nil {
		t.Fatal(err)
	}
	if e.Code != CodeBadRequest {
		t.Fatalf("code = %v, want BAD_REQUEST", e.Code)
	}
}

// TestDuplicateBuildKeysBadRequest: a build whose key set repeats a
// key is the client's fault, so classify maps the builders'
// ErrDuplicateKeys to BAD_REQUEST, not to FAILED (the unlucky-seed
// failure another seed may fix), and the connection stays usable for
// the next request.
func TestDuplicateBuildKeysBadRequest(t *testing.T) {
	_, addr := startServer(t, Options{Workers: 2})
	nc := dialRaw(t, addr)

	keys := testKeys(5000, 3)
	dup := append([]uint64(nil), keys...)
	dup[len(dup)-1] = dup[0]
	nc.Write(appendFrame(nil, OpBuildMPHF, 1, EncodeBuildReq(0, 9, dup)))
	typ, id, payload := readReply(t, nc)
	if typ != TypeError || id != 1 {
		t.Fatalf("reply typ=%#x id=%d, want ERROR id=1", typ, id)
	}
	if e, err := ParseError(payload); err != nil || e.Code != CodeBadRequest {
		t.Fatalf("duplicate keys: %v (parse err %v), want BAD_REQUEST", e, err)
	}

	nc.Write(appendFrame(nil, OpBuildMPHF, 2, EncodeBuildReq(0, 9, keys)))
	if typ, id, _ := readReply(t, nc); typ != TypeResult || id != 2 {
		t.Fatalf("build after the rejected one: typ=%#x id=%d, want RESULT id=2", typ, id)
	}
}

// TestHostileHeadroomRejected: the reconcile headroom multiplies a
// server-side allocation (the difference table), so values beyond
// iblt.MaxHeadroom must be refused as BAD_REQUEST at parse time — a
// tiny frame asking for headroom 1e9 would otherwise drive a multi-GB
// allocation before any work was admitted.
func TestHostileHeadroomRejected(t *testing.T) {
	_, addr := startServer(t, Options{Workers: 1})
	nc := dialRaw(t, addr)

	for i, h := range []float64{1e9, math.Inf(1), math.Inf(-1), math.NaN(), -1, iblt.MaxHeadroom + 0.5} {
		id := uint64(i + 1)
		req := EncodeReconcileReq(0, 7, h, []uint64{1, 2}, []uint64{2, 3})
		if _, err := nc.Write(appendFrame(nil, OpReconcile, id, req)); err != nil {
			t.Fatalf("write headroom %v: %v", h, err)
		}
		typ, gotID, payload := readReply(t, nc)
		if typ != TypeError || gotID != id {
			t.Fatalf("headroom %v: reply typ=%#x id=%d, want ERROR id=%d", h, typ, gotID, id)
		}
		if e, err := ParseError(payload); err != nil || e.Code != CodeBadRequest {
			t.Fatalf("headroom %v: %v (parse err %v), want BAD_REQUEST", h, e, err)
		}
	}

	// The ceiling itself is a valid request.
	req := EncodeReconcileReq(0, 7, iblt.MaxHeadroom, []uint64{1, 2}, []uint64{2, 3})
	if _, err := nc.Write(appendFrame(nil, OpReconcile, 99, req)); err != nil {
		t.Fatalf("write: %v", err)
	}
	if typ, id, _ := readReply(t, nc); typ != TypeResult || id != 99 {
		t.Fatalf("headroom at the cap: typ=%#x id=%d, want RESULT id=99", typ, id)
	}
}

// TestConnDeathCancelsHandlers: a handler admitted for a connection
// that has since died must be reclaimed — request contexts derive from
// the connection's context, which run cancels on exit — instead of a
// no-deadline job for a vanished client running to completion while
// holding a MaxJobs slot.
func TestConnDeathCancelsHandlers(t *testing.T) {
	srv, addr := startServer(t, Options{Workers: 2, MaxJobs: 1})
	nc := dialRaw(t, addr)

	// Heavy and deadline-free: nothing but cancellation bounds it.
	req := EncodeReconcileReq(0, 7, 1.5, testKeys(400_000, 1), testKeys(400_000, 2))
	if _, err := nc.Write(appendFrame(nil, OpReconcile, 3, req)); err != nil {
		t.Fatalf("write: %v", err)
	}

	deadline := time.Now().Add(15 * time.Second)
	for srv.Stats().RequestsAccepted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never accepted")
		}
		time.Sleep(time.Millisecond)
	}
	var c *conn
	srv.mu.Lock()
	for cc := range srv.conns {
		c = cc
	}
	srv.mu.Unlock()
	if c == nil {
		t.Fatal("no registered conn")
	}

	nc.Close()
	select {
	case <-c.ctx.Done():
	case <-time.After(15 * time.Second):
		t.Fatal("connection context not canceled after the socket died")
	}
	// The abandoned job notices at its next barrier and frees the slot.
	for srv.Runtime().Stats().InFlight != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("InFlight = %d long after conn death, want 0", srv.Runtime().Stats().InFlight)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDrainSendsGoAwayAndAnswersShuttingDown covers the drain contract
// on the wire: an idle connection receives GOAWAY, a request racing the
// drain receives a SHUTTING_DOWN reply (never silence), and Serve
// returns nil.
func TestDrainSendsGoAwayAndAnswersShuttingDown(t *testing.T) {
	srv, addr := startServer(t, Options{Workers: 2, MaxJobs: 2})
	nc := dialRaw(t, addr)

	// One round trip first, so the connection is registered with the
	// server before the drain starts; otherwise Serve's accept loop may
	// see the drain first and refuse it at the door (GOAWAY, then close).
	nc.Write(appendFrame(nil, OpLookup, 4, []byte{1, 2}))
	if typ, id, _ := readReply(t, nc); typ != TypeError || id != 4 {
		t.Fatalf("warm-up reply typ=%#x id=%d, want ERROR id=4", typ, id)
	}

	// Hold the runtime open so Shutdown must actually drain.
	release := make(chan struct{})
	started := make(chan struct{})
	wait, err := srv.Runtime().Go(context.Background(), func(ctx context.Context, _ *repro.WorkerPool) error {
		close(started)
		<-release
		return nil
	})
	if err != nil {
		t.Fatalf("occupy: %v", err)
	}
	<-started

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	// The idle conn gets its GOAWAY while the drain waits on the job.
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	typ, id, _, ferr := readFrame(nc, DefaultMaxFrame)
	if ferr != nil {
		t.Fatalf("reading GOAWAY: %v", ferr)
	}
	if typ != TypeGoAway || id != 0 {
		t.Fatalf("got typ=%#x id=%d, want GOAWAY id=0", typ, id)
	}

	// A request arriving mid-drain is refused with a typed reply.
	nc.Write(appendFrame(nil, OpLookup, 5, EncodeLookupReq(0, []uint64{1})))
	typ, id, payload := readReply(t, nc)
	if typ != TypeError || id != 5 {
		t.Fatalf("mid-drain reply typ=%#x id=%d, want ERROR id=5", typ, id)
	}
	if e, err := ParseError(payload); err != nil || e.Code != CodeShuttingDown {
		t.Fatalf("mid-drain code = %v (parse err %v), want SHUTTING_DOWN", e, err)
	}

	close(release)
	if err := wait(); err != nil {
		t.Fatalf("held job: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := srv.Stats().GoAwaysSent; got < 1 {
		t.Fatalf("GoAwaysSent = %d, want >= 1", got)
	}
	if err := srv.Shutdown(context.Background()); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("second Shutdown: %v, want ErrServerClosed", err)
	}
}
