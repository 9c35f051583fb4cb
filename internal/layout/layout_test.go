package layout

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"unsafe"

	"repro/internal/rng"
)

// testBloomier builds a tiny sealed Bloomier image by hand.
func testBloomier(t testing.TB, subSize int) *Image {
	t.Helper()
	im := NewBloomier(7, [Arity]uint64{11, 22, 33}, subSize, subSize)
	for i := range im.Slots {
		im.Slots[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	im.Marshal()
	return im
}

// testMPHF builds a tiny sealed MPHF image by hand.
func testMPHF(t testing.TB, subSize int) *Image {
	t.Helper()
	im := NewMPHF(9, [Arity]uint64{1, 2, 3}, subSize, subSize)
	for i := range im.G {
		im.G[i] = uint8(i % 3)
	}
	for i := range im.Used {
		im.Used[i] = 0xf0f0f0f0f0f0f0f0
	}
	var r uint32
	for i := range im.Used {
		im.Rank[i] = r
		r += 32
	}
	im.Rank[len(im.Used)] = r
	im.Marshal()
	return im
}

func TestRoundTripBloomier(t *testing.T) {
	im := testBloomier(t, 100)
	got, err := Open(im.Bytes())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if got.Kind != KindBloomier || got.Seed != im.Seed || got.HSeed != im.HSeed ||
		got.Keys != im.Keys || got.SubSize != im.SubSize {
		t.Fatalf("header mismatch: %+v vs %+v", got, im)
	}
	if len(got.Slots) != len(im.Slots) {
		t.Fatalf("slots len %d, want %d", len(got.Slots), len(im.Slots))
	}
	for i := range im.Slots {
		if got.Slots[i] != im.Slots[i] {
			t.Fatalf("slot %d differs", i)
		}
	}
}

func TestRoundTripMPHF(t *testing.T) {
	im := testMPHF(t, 50)
	got, err := Open(im.Bytes())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if got.Kind != KindMPHF || got.Seed != im.Seed || got.HSeed != im.HSeed {
		t.Fatal("header mismatch")
	}
	if !bytes.Equal(got.G, im.G) {
		t.Fatal("g mismatch")
	}
	for i := range im.Used {
		if got.Used[i] != im.Used[i] {
			t.Fatalf("used word %d differs", i)
		}
	}
	for i := range im.Rank {
		if got.Rank[i] != im.Rank[i] {
			t.Fatalf("rank %d differs", i)
		}
	}
}

// TestOpenIsZeroCopy pins the aliasing contract: every view of an
// opened image points into the input slice — no per-array copies.
func TestOpenIsZeroCopy(t *testing.T) {
	check := func(t *testing.T, data []byte, views ...unsafe.Pointer) {
		base := uintptr(unsafe.Pointer(unsafe.SliceData(data)))
		for i, v := range views {
			p := uintptr(v)
			if p < base || p >= base+uintptr(len(data)) {
				t.Fatalf("view %d does not alias the image bytes", i)
			}
		}
	}
	t.Run("bloomier", func(t *testing.T) {
		data := testBloomier(t, 64).Bytes()
		im, err := Open(data)
		if err != nil {
			t.Fatal(err)
		}
		check(t, data, unsafe.Pointer(unsafe.SliceData(im.Slots)))
		// Aliasing is observable: mutate the bytes, the view sees it.
		binary.LittleEndian.PutUint64(data[HeaderSize:], 0xdeadbeef)
		if im.Slots[0] != 0xdeadbeef {
			t.Fatal("Slots view did not observe a byte-level write")
		}
	})
	t.Run("mphf", func(t *testing.T) {
		data := testMPHF(t, 64).Bytes()
		im, err := Open(data)
		if err != nil {
			t.Fatal(err)
		}
		check(t, data,
			unsafe.Pointer(unsafe.SliceData(im.G)),
			unsafe.Pointer(unsafe.SliceData(im.Used)),
			unsafe.Pointer(unsafe.SliceData(im.Rank)))
	})
}

// TestOpenRejectsAdversarialGeometry mirrors the iblt wire hardening:
// hostile headers must come back as ErrBadImage without huge
// allocations or panics, before any size arithmetic can overflow.
func TestOpenRejectsAdversarialGeometry(t *testing.T) {
	valid := func() []byte {
		return append([]byte(nil), testBloomier(t, 32).Bytes()...)
	}
	cases := map[string]func([]byte) []byte{
		"short":       func(d []byte) []byte { return d[:HeaderSize-1] },
		"bad magic":   func(d []byte) []byte { d[0] = 'X'; return d },
		"bad version": func(d []byte) []byte { binary.LittleEndian.PutUint16(d[4:], 99); return d },
		"bad kind":    func(d []byte) []byte { binary.LittleEndian.PutUint16(d[6:], 7); return d },
		"subSize 2^62 (overflows size)": func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[56:], 1<<62)
			return d
		},
		"subSize 2^63 (negative as int)": func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[56:], 1<<63)
			return d
		},
		"subSize max uint64": func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[56:], ^uint64(0))
			return d
		},
		"subSize tuned to wrap size check": func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[56:], (1<<64-1)/(Arity*8)+1)
			return d
		},
		"subSize one too many": func(d []byte) []byte {
			cur := binary.LittleEndian.Uint64(d[56:])
			binary.LittleEndian.PutUint64(d[56:], cur+1)
			return d
		},
		"subSize zero": func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[56:], 0)
			return d
		},
		"subSize one": func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[56:], 1)
			return d
		},
		"keys exceed vertices": func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[48:], ^uint64(0))
			return d
		},
		"truncated payload": func(d []byte) []byte { return d[:len(d)-8] },
		"extended payload":  func(d []byte) []byte { return append(d, 0) },
		"flipped slot byte (checksum)": func(d []byte) []byte {
			d[HeaderSize+3] ^= 1
			return d
		},
		"flipped seed byte (checksum)": func(d []byte) []byte {
			d[16] ^= 1
			return d
		},
	}
	for name, corrupt := range cases {
		if _, err := Open(Aligned(corrupt(valid()))); !errors.Is(err, ErrBadImage) {
			t.Errorf("%s: err = %v, want ErrBadImage", name, err)
		}
	}
}

func TestOpenRejectsUnaligned(t *testing.T) {
	data := testBloomier(t, 16).Bytes()
	buf := make([]byte, len(data)+1)
	// Force a misaligned base: whichever parity the allocation has, one
	// of the two windows is odd.
	for _, off := range []int{0, 1} {
		window := buf[off : off+len(data)]
		if uintptr(unsafe.Pointer(unsafe.SliceData(window)))&7 == 0 {
			continue
		}
		copy(window, data)
		if _, err := Open(window); !errors.Is(err, ErrUnaligned) {
			t.Fatalf("unaligned open: err = %v, want ErrUnaligned", err)
		}
		// Aligned repairs it.
		if _, err := Open(Aligned(window)); err != nil {
			t.Fatalf("Open(Aligned(...)): %v", err)
		}
	}
}

// TestMarshalReseals checks that mutating a built image and re-sealing
// produces a checksum Open accepts, while stale checksums are rejected.
func TestMarshalReseals(t *testing.T) {
	im := testBloomier(t, 8)
	im.Slots[0] = 42 // mutate after the first Marshal
	if _, err := Open(im.Bytes()); !errors.Is(err, ErrBadImage) {
		t.Fatalf("stale checksum accepted: %v", err)
	}
	if _, err := Open(im.Marshal()); err != nil {
		t.Fatalf("re-sealed image rejected: %v", err)
	}
}

func TestVertexTripleInParts(t *testing.T) {
	hseed := [Arity]uint64{3, 5, 7}
	const subSize = 1000
	for x := uint64(0); x < 5000; x++ {
		vs := VertexTriple(hseed, subSize, x)
		for j, v := range vs {
			if v < uint32(j*subSize) || v >= uint32((j+1)*subSize) {
				t.Fatalf("key %d part %d: vertex %d out of part", x, j, v)
			}
		}
	}
}

// TestVertexTriplesMatchVertexTriple checks the builders' batch hash
// against the serve-time rule, and both against the rule as the format
// states it (part j from Mix64(x ^ hseed[j]) by multiply-shift), at
// subSizes from the smallest to the largest SubSize allows, on random
// keys and on chunk lengths that are not multiples of anything.
func TestVertexTriplesMatchVertexTriple(t *testing.T) {
	gen := rng.New(30)
	keys := []uint64{0, 1, math.MaxUint64, 1 << 63}
	for len(keys) < 5000 {
		keys = append(keys, gen.Uint64())
	}
	hseed := [Arity]uint64{gen.Uint64(), gen.Uint64(), gen.Uint64()}
	for _, subSize := range []int{2, 3, 53740, 1 << 20, 1<<31 - 1, (1<<32 - 1) / 3} {
		edges := make([]uint32, Arity*len(keys))
		for lo := 0; lo < len(keys); lo += 777 {
			hi := min(lo+777, len(keys))
			VertexTriples(hseed, subSize, keys[lo:hi], edges[Arity*lo:Arity*hi])
		}
		for i, x := range keys {
			var want [Arity]uint32
			for j := range want {
				h := rng.Mix64(x ^ hseed[j])
				want[j] = uint32(j*subSize) + uint32((h>>32)*uint64(subSize)>>32)
			}
			if got := VertexTriple(hseed, subSize, x); got != want {
				t.Fatalf("subSize %d, key %#x: VertexTriple = %v, want %v", subSize, x, got, want)
			}
			if got := [Arity]uint32(edges[Arity*i:]); got != want {
				t.Fatalf("subSize %d, key %#x: VertexTriples = %v, want %v", subSize, x, got, want)
			}
		}
	}
}

// TestSubSizeBounds pins the builders' geometry check: gamma must lie in
// [MinGamma, MaxGamma], and the table must stay below 2^32 vertices so
// that VertexTriple's uint32 ids cannot wrap. 1.5 × 2863311530 is
// 2^32 − 1, the first product whose table reaches 2^32.
func TestSubSizeBounds(t *testing.T) {
	for _, c := range []struct {
		keys  int
		gamma float64
		ok    bool
	}{
		{0, 1.23, true},
		{1000, MinGamma, true},
		{1000, MaxGamma, true},
		{1000, 1.0, false},
		{1000, MaxGamma + 0.01, false},
		{1000, math.NaN(), false},
		{1000, math.Inf(1), false},
		{3, 1e12, false},
		{2863311529, 1.5, true},
		{2863311530, 1.5, false},
		{1 << 62, MaxGamma, false},
	} {
		sub, err := SubSize(c.keys, c.gamma)
		if (err == nil) != c.ok {
			t.Errorf("SubSize(%d, %v) = %d, %v; want ok=%v", c.keys, c.gamma, sub, err, c.ok)
			continue
		}
		if err == nil && (sub < 2 || uint64(sub)*Arity >= 1<<32 || sub*Arity < int(c.gamma*float64(c.keys))) {
			t.Errorf("SubSize(%d, %v) = %d: outside [max(2, γ·keys/3), 2^32/3)", c.keys, c.gamma, sub)
		}
	}
}
