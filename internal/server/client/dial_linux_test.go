package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"syscall"
	"testing"
	"time"
)

// listenNoAccept returns the address of a TCP listener on 127.0.0.1
// that never accepts and whose accept queue is already full, so a new
// dial to it hangs in the handshake until its deadline. Linux drops the
// SYNs of a listener whose accept queue is full; with a listen backlog
// of 0 the queue holds one connection, which a filler dial takes.
func listenNoAccept(t *testing.T) string {
	t.Helper()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Close(fd) })
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", sa.(*syscall.SockaddrInet4).Port)
	for i := 0; ; i++ {
		nc, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err != nil {
			return addr // the queue is full: this dial hung
		}
		t.Cleanup(func() { nc.Close() })
		if i == 8 {
			t.Skip("the accept queue never filled, so a dial cannot be made to hang")
		}
	}
}

// TestCloseCancelsInFlightDial: Close must interrupt a dial that is
// still waiting for the handshake instead of leaving the caller blocked
// until DialTimeout. The call returns promptly with ErrClosed or the
// canceled dial's error.
func TestCloseCancelsInFlightDial(t *testing.T) {
	addr := listenNoAccept(t)
	c := Dial(addr, Options{DialTimeout: time.Minute, MaxRetries: -1})
	errc := make(chan error, 1)
	go func() {
		_, err := c.Lookup(context.Background(), []uint64{1})
		errc <- err
	}()

	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		dialing := c.dialing != nil
		c.mu.Unlock()
		if dialing {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the call never started dialing")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // let the dial reach the handshake
	select {
	case err := <-errc:
		t.Fatalf("the dial to a full accept queue returned before Close: %v", err)
	default:
	}

	start := time.Now()
	c.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) && !errors.Is(err, context.Canceled) {
			t.Fatalf("call after Close: err = %v, want ErrClosed or context.Canceled", err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("Close took %v to cancel the dial", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not cancel the in-flight dial")
	}
}
