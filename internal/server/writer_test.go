package server

import (
	"io"
	"net"
	"runtime"
	"slices"
	"testing"
	"time"
	"weak"

	"repro/internal/iblt"
)

// TestReplyFramesPipelined pipelines 1 MiB decode replies and small
// lookup replies on one connection, answered by concurrent handlers
// that share the connection's writer: every frame must arrive whole, in
// one piece, under the id of the request it answers.
func TestReplyFramesPipelined(t *testing.T) {
	_, addr := startServer(t, Options{Workers: 2, MaxJobs: 32})
	keys := testKeys(1<<17, 7)
	tbl := iblt.New(len(keys)*4/3, 3, 11)
	tbl.InsertAll(keys)
	sketch, err := tbl.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Sorted(slices.Values(keys))

	// Every fourth request is a decode; the rest are lookups, which no
	// installed table answers with a small typed error.
	const requests = 16
	isDecode := func(id uint64) bool { return id%4 == 1 }
	nc := dialRaw(t, addr)
	go func() {
		for id := uint64(1); id <= requests; id++ {
			frame := appendFrame(nil, OpLookup, id, EncodeLookupReq(0, []uint64{id}))
			if isDecode(id) {
				frame = appendFrame(nil, OpDecode, id, EncodeDecodeReq(0, sketch))
			}
			if _, err := nc.Write(frame); err != nil {
				return
			}
		}
	}()

	nc.SetReadDeadline(time.Now().Add(60 * time.Second))
	seen := map[uint64]bool{}
	for range requests {
		typ, id, payload, err := readFrame(nc, DefaultMaxFrame)
		if err != nil {
			t.Fatalf("after %d replies: %v", len(seen), err)
		}
		if id == 0 || id > requests || seen[id] {
			t.Fatalf("reply with id %d: not an outstanding request", id)
		}
		seen[id] = true
		if isDecode(id) {
			res, err := parseDecodeResult(payload)
			if typ != TypeResult || err != nil {
				t.Fatalf("decode %d: reply type %#x, parse error %v", id, typ, err)
			}
			if !res.Complete || !slices.Equal(slices.Sorted(slices.Values(res.Added)), want) || len(res.Removed) != 0 {
				t.Fatalf("decode %d: %d added, %d removed, complete %v", id, len(res.Added), len(res.Removed), res.Complete)
			}
			continue
		}
		if typ != TypeError {
			t.Fatalf("lookup %d: reply type %#x, want an error", id, typ)
		}
		if e, err := parseErrorPayload(payload); err != nil || e.Code != CodeUnavailable {
			t.Fatalf("lookup %d: error reply %v (parse error %v), want UNAVAILABLE", id, e, err)
		}
	}
}

// TestReplyWriterKeepsNoPayload writes three 1 MiB replies through a
// fresh connection's frame writer and checks that it neither copies a
// payload, the first one included, nor holds on to it once the write
// returns: the connection keeps no payload-sized buffer between
// replies.
func TestReplyWriterKeepsNoPayload(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		peer, err := ln.Accept()
		if err != nil {
			return
		}
		defer peer.Close()
		io.Copy(io.Discard, peer)
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := &conn{nc: nc}

	var allocated uint64
	var kept weak.Pointer[byte]
	for id := uint64(1); id <= 3; id++ {
		payload := make([]byte, 1<<20)
		kept = weak.Make(&payload[0])
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := c.writeFrame(TypeResult, id, payload); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		allocated += after.TotalAlloc - before.TotalAlloc
	}
	if allocated > 64<<10 {
		t.Errorf("writing three 1 MiB replies allocated %d bytes: a payload was copied", allocated)
	}
	runtime.GC()
	if kept.Value() != nil {
		t.Error("the connection still references the last reply's payload after the write")
	}
	nc.Close()
	<-drained
}
