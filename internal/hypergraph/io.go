package hypergraph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Binary hypergraph format, for persisting generated instances and
// feeding external graphs to cmd/peeltool:
//
//	magic "HGR1" (4 bytes)
//	n, m, r, subtableSize (uint64 little-endian each)
//	edges (m·r × uint32 little-endian)

const wireMagic = "HGR1"

// ErrBadFormat is returned by ReadFrom for corrupt or truncated payloads.
var ErrBadFormat = errors.New("hypergraph: bad binary format")

// WriteTo serializes the hypergraph. It implements io.WriterTo.
func (g *Hypergraph) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var written int64
	n, err := bw.WriteString(wireMagic)
	written += int64(n)
	if err != nil {
		return written, err
	}
	var hdr [32]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(g.N))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(g.M))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(g.R))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(g.SubtableSize))
	n, err = bw.Write(hdr[:])
	written += int64(n)
	if err != nil {
		return written, err
	}
	var buf [4]byte
	for _, v := range g.Edges {
		binary.LittleEndian.PutUint32(buf[:], v)
		n, err = bw.Write(buf[:])
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	return written, bw.Flush()
}

// readChunk is the number of edge entries ReadFrom reads at a time, so
// that a header promising more edges than the payload holds costs edge
// memory only for the bytes actually present.
const readChunk = 1 << 14

// ReadFrom deserializes a hypergraph written by WriteTo and rebuilds the
// incidence index. It validates the header before it allocates for it:
// n is at most 2^32, since vertex ids are uint32, and the m·r incidences
// must be countable by the uint32 CSR offsets. It validates vertex ranges
// and the partition structure (position j of every edge in subtable j,
// the contract Subtables relies on), and reads the edges in chunks, so
// the edge list grows only with the edge bytes actually present.
//
// Memory is O(n + bytes read), not O(bytes read): the incidence index
// is sized from the header's n, at 12 or more bytes per vertex, however
// few edges follow. A 36-byte file declaring n = 2^24 and m = 0
// allocates at least 192 MiB, and n = 2^32 asks for tens of GB, so a caller
// reading untrusted input must bound n itself.
func ReadFrom(r io.Reader) (*Hypergraph, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != wireMagic {
		return nil, fmt.Errorf("%w: missing magic", ErrBadFormat)
	}
	var hdr [32]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header", ErrBadFormat)
	}
	n := binary.LittleEndian.Uint64(hdr[0:])
	m := binary.LittleEndian.Uint64(hdr[8:])
	rr := binary.LittleEndian.Uint64(hdr[16:])
	sub := binary.LittleEndian.Uint64(hdr[24:])
	if rr < 2 || rr > MaxArity || n < rr || n > 1<<32 || m > math.MaxUint32/rr || sub > n {
		return nil, fmt.Errorf("%w: header n=%d m=%d r=%d sub=%d", ErrBadFormat, n, m, rr, sub)
	}
	if sub != 0 && sub*rr != n {
		return nil, fmt.Errorf("%w: partition %d×%d != n=%d", ErrBadFormat, sub, rr, n)
	}
	total := int(m * rr)
	edges := make([]uint32, 0, min(total, readChunk))
	raw := make([]byte, 4*min(total, readChunk))
	for len(edges) < total {
		chunk := raw[:4*min(total-len(edges), readChunk)]
		if _, err := io.ReadFull(br, chunk); err != nil {
			return nil, fmt.Errorf("%w: short edge data", ErrBadFormat)
		}
		for i := 0; i < len(chunk); i += 4 {
			v := uint64(binary.LittleEndian.Uint32(chunk[i:]))
			if v >= n {
				return nil, fmt.Errorf("%w: vertex %d out of range", ErrBadFormat, v)
			}
			if j := uint64(len(edges)) % rr; sub != 0 && v/sub != j {
				return nil, fmt.Errorf("%w: edge %d violates partition", ErrBadFormat, uint64(len(edges))/rr)
			}
			edges = append(edges, uint32(v))
		}
	}
	return FromEdges(int(n), int(rr), edges, int(sub)), nil
}
