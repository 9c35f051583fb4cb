package hypergraph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/rng"
)

func TestWriteReadRoundTrip(t *testing.T) {
	for _, gen := range []struct {
		name string
		g    *Hypergraph
	}{
		{"uniform", Uniform(500, 350, 4, rng.New(1))},
		{"partitioned", Partitioned(600, 400, 3, rng.New(2))},
		{"empty", Uniform(10, 0, 3, rng.New(3))},
	} {
		var buf bytes.Buffer
		if _, err := gen.g.WriteTo(&buf); err != nil {
			t.Fatalf("%s: WriteTo: %v", gen.name, err)
		}
		back, err := ReadFrom(&buf)
		if err != nil {
			t.Fatalf("%s: ReadFrom: %v", gen.name, err)
		}
		if back.N != gen.g.N || back.M != gen.g.M || back.R != gen.g.R ||
			back.SubtableSize != gen.g.SubtableSize {
			t.Fatalf("%s: shape mismatch", gen.name)
		}
		for i := range gen.g.Edges {
			if back.Edges[i] != gen.g.Edges[i] {
				t.Fatalf("%s: edge data mismatch at %d", gen.name, i)
			}
		}
		// Incidence must be rebuilt correctly.
		for v := 0; v < back.N; v++ {
			if back.Degree(v) != gen.g.Degree(v) {
				t.Fatalf("%s: degree mismatch at vertex %d", gen.name, v)
			}
		}
	}
}

func TestReadFromRejectsCorruption(t *testing.T) {
	g := Uniform(100, 50, 3, rng.New(4))
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte("XXXX"), data[4:]...),
		"short hdr":   data[:20],
		"short edges": data[:len(data)-4],
		// m·r far beyond memory: sized from the header, it panicked.
		"huge m": wireHeader(100, 1<<61, 3, 0),
		// m·r wraps to 4 mod 2^64: it was accepted as one edge.
		"wrapping m·r": append(wireHeader(100, 1<<62+1, 4, 0), make([]byte, 16)...),
		"n over 2^32":  wireHeader(1<<32+1, 0, 2, 0),
		"huge sub":     wireHeader(100, 0, 2, 1<<63),
	}
	for name, payload := range cases {
		if _, err := ReadFrom(bytes.NewReader(payload)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: err = %v, want ErrBadFormat", name, err)
		}
	}

	// Out-of-range vertex id.
	bad := append([]byte(nil), data...)
	bad[len(bad)-1] = 0xff
	bad[len(bad)-2] = 0xff
	bad[len(bad)-3] = 0xff
	bad[len(bad)-4] = 0xff
	if _, err := ReadFrom(bytes.NewReader(bad)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("vertex range: err = %v, want ErrBadFormat", err)
	}
}

// wireHeader returns the magic and header of a graph with the given
// fields and no edge data.
func wireHeader(n, m, r, sub uint64) []byte {
	b := []byte(wireMagic)
	for _, x := range []uint64{n, m, r, sub} {
		b = binary.LittleEndian.AppendUint64(b, x)
	}
	return b
}

// FuzzReadFrom feeds arbitrary bytes to ReadFrom: it must return a graph
// that round-trips through WriteTo, or ErrBadFormat, and never panic.
// Headers with n above 2^16 are skipped: ReadFrom's memory is O(n +
// bytes read), since it sizes the CSR arrays from the header's n even
// when no edge bytes follow, and a fuzzer would spend its time
// allocating them.
func FuzzReadFrom(f *testing.F) {
	for _, g := range []*Hypergraph{Uniform(20, 12, 3, rng.New(1)), Partitioned(12, 5, 3, rng.New(2))} {
		var buf bytes.Buffer
		if _, err := g.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(wireHeader(100, 1<<61, 3, 0))
	f.Add(append(wireHeader(100, 1<<62+1, 4, 0), make([]byte, 16)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 12 && binary.LittleEndian.Uint64(data[4:]) > 1<<16 {
			t.Skip()
		}
		g, err := ReadFrom(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("err = %v, want ErrBadFormat", err)
			}
			return
		}
		var buf bytes.Buffer
		if _, err := g.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, buf.Bytes()) {
			t.Fatal("accepted graph does not round-trip")
		}
	})
}

func TestReadFromRejectsBrokenPartition(t *testing.T) {
	g := Partitioned(300, 100, 3, rng.New(5))
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Corrupt the first edge's first vertex to sit in the wrong subtable
	// (vertex 250 is in subtable 2, position 0 expects subtable 0).
	data[36] = 250
	data[37], data[38], data[39] = 0, 0, 0
	if _, err := ReadFrom(bytes.NewReader(data)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("partition violation: err = %v, want ErrBadFormat", err)
	}
}
