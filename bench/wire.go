package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/server"
)

// wireConn is one raw protocol connection. The benchmark speaks the
// frame format itself (instead of going through the retrying client) so
// that request payloads are encoded once at set-up, a request is sent
// exactly once, and every byte on the wire is counted.
type wireConn struct {
	nc  net.Conn
	br  *bufio.Reader
	hdr [13]byte
}

func dialWire(addr string) (*wireConn, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	if _, err := nc.Write([]byte(server.Preface)); err != nil {
		nc.Close()
		return nil, fmt.Errorf("preface: %w", err)
	}
	return &wireConn{nc: nc, br: bufio.NewReaderSize(nc, 256<<10)}, nil
}

func (c *wireConn) Close() error { return c.nc.Close() }

// send writes one request frame: uint32 length | op | uint64 id |
// payload. The payload goes out by writev, uncopied.
func (c *wireConn) send(op byte, id uint64, payload []byte) error {
	binary.LittleEndian.PutUint32(c.hdr[0:], uint32(9+len(payload)))
	c.hdr[4] = op
	binary.LittleEndian.PutUint64(c.hdr[5:], id)
	bufs := net.Buffers{c.hdr[:], payload}
	_, err := bufs.WriteTo(c.nc)
	return err
}

// recv reads one reply frame, bounding its length like the server does.
func (c *wireConn) recv() (typ byte, id uint64, payload []byte, err error) {
	var hdr [13]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[0:]))
	if n < 9 || n > server.DefaultMaxFrame {
		return 0, 0, nil, fmt.Errorf("reply frame length %d out of range", n)
	}
	payload = make([]byte, n-9)
	if _, err := io.ReadFull(c.br, payload); err != nil {
		return 0, 0, nil, err
	}
	return hdr[4], binary.LittleEndian.Uint64(hdr[5:]), payload, nil
}

// replyErr turns a non-RESULT reply into an error.
func replyErr(typ byte, payload []byte) error {
	switch typ {
	case server.TypeResult:
		return nil
	case server.TypeError:
		e, err := server.ParseError(payload)
		if err != nil {
			return err
		}
		return e
	default:
		return fmt.Errorf("unexpected reply type %#x", typ)
	}
}
