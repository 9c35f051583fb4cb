package client

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// fakeServer is a scripted stand-in for the peeling server on
// 127.0.0.1:0. Each accepted connection reads the preface and then
// hands the connection to serve, which reads request frames with
// readFrame and writes replies with appendFrame. frames counts every
// request frame that reached the server, over all connections.
type fakeServer struct {
	ln     net.Listener
	frames atomic.Int64
	wg     sync.WaitGroup
}

func newFakeServer(t *testing.T, serve func(fs *fakeServer, nc net.Conn)) *fakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeServer{ln: ln}
	fs.wg.Add(1)
	go func() {
		defer fs.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			fs.wg.Add(1)
			go func() {
				defer fs.wg.Done()
				defer nc.Close()
				preface := make([]byte, len(server.Preface))
				if _, err := io.ReadFull(nc, preface); err != nil || string(preface) != server.Preface {
					return
				}
				serve(fs, nc)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		fs.wg.Wait()
	})
	return fs
}

func (fs *fakeServer) addr() string { return fs.ln.Addr().String() }

// readRequest reads one request frame and counts it.
func (fs *fakeServer) readRequest(nc net.Conn) (op byte, id uint64, payload []byte, err error) {
	op, id, payload, err = readFrame(nc, server.DefaultMaxFrame)
	if err == nil {
		fs.frames.Add(1)
	}
	return op, id, payload, err
}

// closeAfterOneFrame reads one request frame and drops the connection
// without replying: the ambiguous "maybe executed" loss.
func closeAfterOneFrame(fs *fakeServer, nc net.Conn) {
	fs.readRequest(nc)
}

func writeReply(t *testing.T, nc net.Conn, typ byte, id uint64, payload []byte) {
	t.Helper()
	if _, err := nc.Write(appendFrame(nil, typ, id, payload)); err != nil {
		t.Error(err)
	}
}

// overloadedPayload is an ERROR payload carrying CodeOverloaded and a
// retry-after hint, with an empty message.
func overloadedPayload(retryAfter time.Duration) []byte {
	buf := []byte{byte(server.CodeOverloaded)}
	buf = binary.LittleEndian.AppendUint32(buf, server.DeadlineMs(retryAfter))
	return binary.LittleEndian.AppendUint16(buf, 0)
}

// lookupReply answers a Lookup payload (deadline, count, keys) with
// values[i] = keys[i] + 1 at generation 1.
func lookupReply(req []byte) []byte {
	n := binary.LittleEndian.Uint32(req[4:])
	buf := binary.LittleEndian.AppendUint64(nil, 1)
	buf = binary.LittleEndian.AppendUint32(buf, n)
	for i := 0; i < int(n); i++ {
		buf = binary.LittleEndian.AppendUint64(buf, binary.LittleEndian.Uint64(req[8+8*i:])+1)
	}
	return buf
}

func testContext(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestBackoffHonorsRetryAfter checks that a shed request is never
// retried before the server's retry-after hint, even when the jittered
// exponential backoff is shorter, and that the backoff stays within
// [d/2, d] for the capped exponential d otherwise.
func TestBackoffHonorsRetryAfter(t *testing.T) {
	const hint = 20 * time.Millisecond
	for i := 0; i < 20; i++ {
		start := time.Now()
		if err := sleepBackoff(context.Background(), Options{}, 0, hint); err != nil {
			t.Fatal(err)
		}
		if slept := time.Since(start); slept < hint {
			t.Fatalf("call %d slept %v, want at least the %v retry-after hint", i, slept, hint)
		}
	}
	opts := Options{BaseBackoff: 4 * time.Millisecond, MaxBackoff: 100 * time.Millisecond}
	for attempt := 0; attempt < 8; attempt++ {
		d := min(opts.BaseBackoff<<attempt, opts.MaxBackoff)
		for i := 0; i < 200; i++ {
			if got := backoffDelay(opts, attempt, 0); got < d/2 || got > d {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, got, d/2, d)
			}
			if got := backoffDelay(opts, attempt, 30*time.Millisecond); got < 30*time.Millisecond || got > max(d, 30*time.Millisecond) {
				t.Fatalf("attempt %d: backoff %v with a 30ms hint outside [30ms, %v]", attempt, got, max(d, 30*time.Millisecond))
			}
		}
	}
}

// TestSwapImageNotRetriedAfterConnLoss: SwapImage is not idempotent, so
// a connection lost after its frame reached the server is reported, not
// retried — the server sees exactly one frame.
func TestSwapImageNotRetriedAfterConnLoss(t *testing.T) {
	fs := newFakeServer(t, closeAfterOneFrame)
	c := Dial(fs.addr(), Options{BaseBackoff: time.Millisecond, MaxRetries: 3})
	defer c.Close()
	if _, err := c.SwapImage(testContext(t), []byte("image")); !errors.Is(err, errConnLost) {
		t.Fatalf("SwapImage err = %v, want connection loss", err)
	}
	if n := fs.frames.Load(); n != 1 {
		t.Fatalf("server saw %d SwapImage frames, want exactly 1", n)
	}
}

// TestLookupRetriedAfterConnLoss: Lookup is idempotent, so the same
// ambiguous loss is retried, once per allowed retry.
func TestLookupRetriedAfterConnLoss(t *testing.T) {
	fs := newFakeServer(t, closeAfterOneFrame)
	c := Dial(fs.addr(), Options{BaseBackoff: time.Millisecond, MaxRetries: 2})
	defer c.Close()
	if _, err := c.Lookup(testContext(t), []uint64{1, 2}); !errors.Is(err, errConnLost) {
		t.Fatalf("Lookup err = %v, want connection loss", err)
	}
	if n := fs.frames.Load(); n != 3 {
		t.Fatalf("server saw %d Lookup frames, want 3 (first try + 2 retries)", n)
	}
}

// TestOverloadedRetriedForSwapImage: an OVERLOADED reply means the
// request never ran, so even the non-idempotent SwapImage retries it.
func TestOverloadedRetriedForSwapImage(t *testing.T) {
	fs := newFakeServer(t, func(fs *fakeServer, nc net.Conn) {
		for {
			_, id, _, err := fs.readRequest(nc)
			if err != nil {
				return
			}
			if fs.frames.Load() == 1 {
				writeReply(t, nc, server.TypeError, id, overloadedPayload(time.Millisecond))
				continue
			}
			writeReply(t, nc, server.TypeResult, id, binary.LittleEndian.AppendUint64(nil, 7))
		}
	})
	c := Dial(fs.addr(), Options{BaseBackoff: time.Millisecond})
	defer c.Close()
	gen, err := c.SwapImage(testContext(t), []byte("image"))
	if err != nil || gen != 7 {
		t.Fatalf("SwapImage = (%d, %v), want (7, nil)", gen, err)
	}
	if n := fs.frames.Load(); n != 2 {
		t.Fatalf("server saw %d SwapImage frames, want 2 (shed + retry)", n)
	}
}

// TestRepliesMatchedByID: the server reads two concurrent Lookup frames
// from one connection and answers them in reverse order; each call must
// still get the reply to its own request.
func TestRepliesMatchedByID(t *testing.T) {
	fs := newFakeServer(t, func(fs *fakeServer, nc net.Conn) {
		type req struct {
			id      uint64
			payload []byte
		}
		var reqs []req
		for len(reqs) < 2 {
			op, id, payload, err := fs.readRequest(nc)
			if err != nil {
				return
			}
			if op != server.OpLookup {
				t.Errorf("op = %#x, want OpLookup", op)
				return
			}
			reqs = append(reqs, req{id, payload})
		}
		for i := len(reqs) - 1; i >= 0; i-- {
			writeReply(t, nc, server.TypeResult, reqs[i].id, lookupReply(reqs[i].payload))
		}
	})
	c := Dial(fs.addr(), Options{MaxRetries: -1})
	defer c.Close()
	ctx := testContext(t)
	var wg sync.WaitGroup
	for _, keys := range [][]uint64{{10, 11}, {20, 21, 22}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := c.Lookup(ctx, keys)
			if err != nil {
				t.Errorf("Lookup(%v): %v", keys, err)
				return
			}
			if len(res.Values) != len(keys) {
				t.Errorf("Lookup(%v) = %v: wrong reply", keys, res.Values)
				return
			}
			for i, k := range keys {
				if res.Values[i] != k+1 {
					t.Errorf("Lookup(%v) = %v: got another request's reply", keys, res.Values)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := fs.frames.Load(); n != 2 {
		t.Fatalf("server saw %d frames, want 2 on one connection", n)
	}
}
