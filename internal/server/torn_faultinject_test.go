//go:build faultinject

package server

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"

	"repro/internal/faultinject"
)

// TestTornFrameIsHalf arms the torn-frame failpoint and checks what the
// peer receives for a short frame and a 1 MiB one: exactly the first
// half of the frame's bytes, header included, and then the end of the
// stream.
func TestTornFrameIsHalf(t *testing.T) {
	faultinject.Arm(faultinject.ServerFrameTorn, func(int64, any) error { return errors.New("torn") })
	defer faultinject.Disarm(faultinject.ServerFrameTorn)
	for _, size := range []int{0, 5, 1 << 20} {
		server, peer := net.Pipe()
		got := make(chan []byte)
		go func() {
			b, _ := io.ReadAll(peer)
			got <- b
		}()
		payload := bytes.Repeat([]byte{0xa5}, size)
		c := &conn{nc: server}
		if err := c.writeFrame(TypeResult, 7, payload); err == nil {
			t.Fatalf("payload %d: torn write returned nil", size)
		}
		frame := appendFrame(nil, TypeResult, 7, payload)
		if b := <-got; !bytes.Equal(b, frame[:len(frame)/2]) {
			t.Errorf("payload %d: peer got %d bytes, want the frame's first %d", size, len(b), len(frame)/2)
		}
		if err := c.writeFrame(TypeResult, 8, nil); !errors.Is(err, net.ErrClosed) {
			t.Errorf("payload %d: write after a torn frame returned %v, want net.ErrClosed", size, err)
		}
	}
}
