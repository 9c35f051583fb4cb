// Package client is the companion client for the peeling wire server
// (repro/internal/server): one connection multiplexing concurrent
// requests by ID, with deadline propagation and disciplined retries.
//
// Retry classification is the point of the package:
//
//   - OVERLOADED replies are always retryable, for every op — a shed
//     request never started. The wait is capped exponential backoff
//     with jitter, never shorter than the server's retry-after hint.
//   - Connection loss after a request was sent is ambiguous — the
//     server may or may not have executed it — so it is retried only
//     for idempotent ops. SwapImage is not idempotent (it advances the
//     table generation) and is never retried past that point.
//   - Dial failures and GOAWAY-before-send are retryable for any op:
//     the request provably never reached a handler.
//   - Every other typed reply (BAD_REQUEST, FAILED, INTERNAL,
//     DEADLINE_EXCEEDED, ...) is terminal: the server answered; asking
//     again with the same bytes buys nothing.
//
// Deadlines propagate: the remaining time on the caller's context rides
// in every request frame and becomes the handler's deadline on the
// server, so a client-side timeout bounds server-side work instead of
// abandoning it.
package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"repro/internal/server"
)

// Options configure Dial. The zero value retries up to 4 times with
// 10ms..1s exponential backoff and reads frames up to
// server.DefaultMaxFrame.
type Options struct {
	// MaxRetries bounds retry attempts after the first try; < 0
	// disables retries, 0 selects 4.
	MaxRetries int
	// BaseBackoff is the first retry's backoff; <= 0 selects 10ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential backoff; <= 0 selects 1s.
	MaxBackoff time.Duration
	// MaxFrame caps reply frames; <= 0 selects server.DefaultMaxFrame.
	MaxFrame int
	// DialTimeout bounds each (re)dial; <= 0 selects 5s.
	DialTimeout time.Duration
}

func (o Options) maxRetries() int {
	if o.MaxRetries < 0 {
		return 0
	}
	if o.MaxRetries == 0 {
		return 4
	}
	return o.MaxRetries
}

func (o Options) baseBackoff() time.Duration {
	if o.BaseBackoff <= 0 {
		return 10 * time.Millisecond
	}
	return o.BaseBackoff
}

func (o Options) maxBackoff() time.Duration {
	if o.MaxBackoff <= 0 {
		return time.Second
	}
	return o.MaxBackoff
}

func (o Options) maxFrame() int {
	if o.MaxFrame <= 0 {
		return server.DefaultMaxFrame
	}
	return o.MaxFrame
}

func (o Options) dialTimeout() time.Duration {
	if o.DialTimeout <= 0 {
		return 5 * time.Second
	}
	return o.DialTimeout
}

// ErrClosed is returned by calls on a closed Client.
var ErrClosed = errors.New("client: closed")

// errConnLost marks replies abandoned because the transport died with
// the request possibly in flight — the ambiguous failure retried only
// for idempotent ops.
var errConnLost = errors.New("client: connection lost")

// errGoAway marks a send refused because the connection is draining;
// the request never reached a handler, so any op may retry on a fresh
// connection.
var errGoAway = errors.New("client: connection draining (GOAWAY)")

// Client is a connection to one peeling server, safe for concurrent
// use: requests multiplex over a single conn by request ID, and a
// dead or draining conn is redialed lazily on the next send.
type Client struct {
	addr string
	opts Options

	mu         sync.Mutex
	cc         *clientConn // current transport, nil until first send
	nextID     uint64
	closed     bool
	dialing    chan struct{}      // non-nil while a dial is in flight; closed when it settles
	dialCancel context.CancelFunc // interrupts the in-flight dial (Close)
}

// clientConn is one transport generation: a socket, its reader
// goroutine, and the reply channels of the requests in flight on it.
type clientConn struct {
	nc      net.Conn
	writeMu sync.Mutex
	wbuf    []byte

	mu       sync.Mutex
	pending  map[uint64]chan reply
	draining bool  // GOAWAY received: no new sends, pending replies still flow
	dead     error // non-nil once the reader exited; pending were flushed
}

type reply struct {
	typ     byte
	payload []byte
}

// Dial connects to a server. The connection is established lazily on
// the first call, so Dial itself cannot fail; per-call errors report
// unreachable servers.
func Dial(addr string, opts Options) *Client {
	return &Client{addr: addr, opts: opts}
}

// Close tears down the transport; in-flight calls fail with connection
// loss, and an in-progress redial is canceled rather than waited out.
// Safe to call twice.
func (c *Client) Close() error {
	c.mu.Lock()
	cc := c.cc
	c.cc = nil
	c.closed = true
	if c.dialCancel != nil {
		c.dialCancel()
	}
	c.mu.Unlock()
	if cc != nil {
		cc.nc.Close()
	}
	return nil
}

// conn returns the live transport, dialing a fresh one if the current
// generation is nil, dead, or draining. The dial itself runs with c.mu
// released — a slow or failing redial (up to DialTimeout) must not
// block every concurrent call, nor Close. Concurrent callers wait on
// the dialing channel instead of stacking duplicate dials, and closed/
// cc are re-checked once the dial settles.
func (c *Client) conn(ctx context.Context) (*clientConn, error) {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, ErrClosed
		}
		if cc := c.cc; cc != nil {
			cc.mu.Lock()
			usable := cc.dead == nil && !cc.draining
			cc.mu.Unlock()
			if usable {
				c.mu.Unlock()
				return cc, nil
			}
		}
		if ch := c.dialing; ch != nil {
			// Another call owns the dial; wait for it to settle, then
			// re-check from the top (it may have failed).
			c.mu.Unlock()
			select {
			case <-ch:
				continue
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		dctx, dcancel := context.WithCancel(ctx)
		ch := make(chan struct{})
		c.dialing, c.dialCancel = ch, dcancel
		c.mu.Unlock()

		cc, err := dialConn(dctx, c.addr, c.opts)
		dcancel()

		c.mu.Lock()
		c.dialing, c.dialCancel = nil, nil
		closed := c.closed
		if err == nil && !closed {
			c.cc = cc
		}
		c.mu.Unlock()
		close(ch)
		if err != nil {
			return nil, err
		}
		if closed {
			// Close raced the dial; honor it rather than resurrecting a
			// transport the caller already tore down.
			cc.nc.Close()
			return nil, ErrClosed
		}
		return cc, nil
	}
}

// dialConn establishes one transport generation: socket, preface,
// reader goroutine. It holds no Client locks.
func dialConn(ctx context.Context, addr string, opts Options) (*clientConn, error) {
	d := net.Dialer{Timeout: opts.dialTimeout()}
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	if _, err := nc.Write([]byte(server.Preface)); err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: preface: %w", err)
	}
	cc := &clientConn{nc: nc, pending: make(map[uint64]chan reply)}
	//peelvet:allow nospawn -- per-connection reply demultiplexer: it owns the read side of the socket, terminates when the conn dies, and flushes every pending waiter on exit (no request waits forever)
	go cc.readLoop(opts.maxFrame())
	return cc, nil
}

// readLoop delivers reply frames to their waiting requests until the
// conn dies, then flushes every pending waiter with connection loss.
func (cc *clientConn) readLoop(maxFrame int) {
	var exitErr error
	for {
		typ, id, payload, err := readFrame(cc.nc, maxFrame)
		if err != nil {
			exitErr = err
			break
		}
		if typ == server.TypeGoAway {
			cc.mu.Lock()
			cc.draining = true
			cc.mu.Unlock()
			continue
		}
		cc.mu.Lock()
		ch := cc.pending[id]
		delete(cc.pending, id)
		cc.mu.Unlock()
		if ch != nil {
			ch <- reply{typ: typ, payload: payload}
		}
	}
	cc.nc.Close()
	cc.mu.Lock()
	cc.dead = exitErr
	for id, ch := range cc.pending {
		delete(cc.pending, id)
		close(ch) // closed channel = conn lost before a reply arrived
	}
	cc.mu.Unlock()
}

// readFrame mirrors the server's bounded frame reader.
func readFrame(r io.Reader, maxFrame int) (typ byte, id uint64, payload []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	length := int(uint32(hdr[0]) | uint32(hdr[1])<<8 | uint32(hdr[2])<<16 | uint32(hdr[3])<<24)
	if length < 9 || length > maxFrame {
		return 0, 0, nil, fmt.Errorf("client: bad frame length %d", length)
	}
	body := make([]byte, length)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, 0, nil, err
	}
	id = uint64(body[1]) | uint64(body[2])<<8 | uint64(body[3])<<16 | uint64(body[4])<<24 |
		uint64(body[5])<<32 | uint64(body[6])<<40 | uint64(body[7])<<48 | uint64(body[8])<<56
	return body[0], id, body[9:], nil
}

// roundTrip sends one request on the current transport and waits for
// its reply. errConnLost / errGoAway classify transport failures for
// the retry loop above.
func (c *Client) roundTrip(ctx context.Context, op byte, payload []byte) (reply, error) {
	cc, err := c.conn(ctx)
	if err != nil {
		return reply{}, err
	}

	c.mu.Lock()
	c.nextID++
	id := c.nextID
	c.mu.Unlock()

	ch := make(chan reply, 1)
	cc.mu.Lock()
	if cc.dead != nil || cc.draining {
		// Either way the request never launched: retryable for any op.
		cc.mu.Unlock()
		return reply{}, errGoAway
	}
	cc.pending[id] = ch
	cc.mu.Unlock()

	cc.writeMu.Lock()
	cc.wbuf = appendFrame(cc.wbuf[:0], op, id, payload)
	_, werr := cc.nc.Write(cc.wbuf)
	cc.writeMu.Unlock()
	if werr != nil {
		cc.mu.Lock()
		delete(cc.pending, id)
		cc.mu.Unlock()
		// The write failed part-way into the kernel at worst; the server
		// may still have the full frame. Ambiguous: conn-lost semantics.
		return reply{}, errConnLost
	}

	select {
	case rep, ok := <-ch:
		if !ok {
			return reply{}, errConnLost
		}
		return rep, nil
	case <-ctx.Done():
		cc.mu.Lock()
		delete(cc.pending, id)
		cc.mu.Unlock()
		return reply{}, ctx.Err()
	}
}

// appendFrame appends one frame in the server's wire format to buf.
func appendFrame(buf []byte, typ byte, id uint64, payload []byte) []byte {
	n := uint32(1 + 8 + len(payload))
	buf = append(buf, byte(n), byte(n>>8), byte(n>>16), byte(n>>24), typ)
	buf = append(buf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24), byte(id>>32), byte(id>>40), byte(id>>48), byte(id>>56))
	return append(buf, payload...)
}

// call runs the retry loop around roundTrip: OVERLOADED and
// never-launched failures retry with backoff for every op; ambiguous
// connection loss retries only if idempotent is true; typed replies
// other than OVERLOADED are terminal.
func (c *Client) call(ctx context.Context, op byte, payload []byte, idempotent bool) ([]byte, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		rep, err := c.roundTrip(ctx, op, payload)
		retryable := false
		var wait time.Duration
		switch {
		case err == nil && rep.typ == server.TypeResult:
			return rep.payload, nil
		case err == nil && rep.typ == server.TypeError:
			serr, perr := server.ParseError(rep.payload)
			if perr != nil {
				return nil, perr
			}
			lastErr = serr
			if serr.Code == server.CodeOverloaded {
				retryable = true // shed before execution: safe for every op
				wait = serr.RetryAfter
			}
		case err == nil:
			return nil, fmt.Errorf("client: unexpected reply type %#x", rep.typ)
		case errors.Is(err, errGoAway):
			lastErr, retryable = server.ErrShuttingDown, true // never launched
		case errors.Is(err, errConnLost):
			lastErr, retryable = err, idempotent // ambiguous: maybe executed
		case errors.Is(err, ErrClosed), errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			return nil, err
		default:
			lastErr, retryable = err, true // dial failure: never launched
		}
		if !retryable || attempt >= c.opts.maxRetries() {
			return nil, lastErr
		}
		if err := sleepBackoff(ctx, c.opts, attempt, wait); err != nil {
			return nil, err
		}
	}
}

// sleepBackoff waits for backoffDelay, respecting ctx.
func sleepBackoff(ctx context.Context, opts Options, attempt int, hint time.Duration) error {
	t := time.NewTimer(backoffDelay(opts, attempt, hint))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// backoffDelay is the wait before retry attempt+1: the capped
// exponential backoff d, jittered into [d/2, d], but never shorter than
// the server's retry-after hint.
func backoffDelay(opts Options, attempt int, hint time.Duration) time.Duration {
	d := opts.baseBackoff() << uint(attempt)
	if ceil := opts.maxBackoff(); d > ceil || d <= 0 {
		d = ceil
	}
	d = d/2 + time.Duration(rand.Int64N(int64(d/2)+1)) // [d/2, d]
	return max(d, hint)
}

// deadlineField computes the request's relative-deadline field from
// ctx — the wire carries remaining milliseconds, so the server's
// handler inherits the caller's deadline.
func deadlineField(ctx context.Context) uint32 {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	return server.DeadlineMs(time.Until(dl))
}

// Reconcile runs the two-set reconciliation on the server and returns
// the difference sides plus the server's retry metadata (attempts and
// wire bytes across headroom escalation).
func (c *Client) Reconcile(ctx context.Context, local, remote []uint64, seed uint64, headroom float64) (*server.ReconcileResult, error) {
	p, err := c.call(ctx, server.OpReconcile, server.EncodeReconcileReq(deadlineField(ctx), seed, headroom, local, remote), true)
	if err != nil {
		return nil, err
	}
	return server.ParseReconcileResult(p)
}

// Decode ships an IBLT sketch (iblt wire format) and returns the
// recovered difference.
func (c *Client) Decode(ctx context.Context, sketch []byte) (*server.DecodeResult, error) {
	p, err := c.call(ctx, server.OpDecode, server.EncodeDecodeReq(deadlineField(ctx), sketch), true)
	if err != nil {
		return nil, err
	}
	return server.ParseDecodeResult(p)
}

// BuildMPHF builds a minimal perfect hash function over keys on the
// server and returns its flat image bytes.
func (c *Client) BuildMPHF(ctx context.Context, keys []uint64, seed uint64) ([]byte, error) {
	p, err := c.call(ctx, server.OpBuildMPHF, server.EncodeBuildReq(deadlineField(ctx), seed, keys), true)
	if err != nil {
		return nil, err
	}
	return server.ParseImagePayload(p)
}

// Lookup serves keys against the server's static table; values[i]
// answers keys[i], all from the returned generation.
func (c *Client) Lookup(ctx context.Context, keys []uint64) (*server.LookupResult, error) {
	p, err := c.call(ctx, server.OpLookup, server.EncodeLookupReq(deadlineField(ctx), keys), true)
	if err != nil {
		return nil, err
	}
	return server.ParseLookupResult(p)
}

// SwapImage installs a flat image as the server table's next
// generation. NOT idempotent: connection loss after the send is
// reported as-is, never silently retried — the caller must check the
// table generation before resending.
func (c *Client) SwapImage(ctx context.Context, image []byte) (generation uint64, err error) {
	p, err := c.call(ctx, server.OpSwapImage, server.EncodeSwapReq(deadlineField(ctx), image), false)
	if err != nil {
		return 0, err
	}
	return server.ParseUint64Payload(p)
}

// Estimate ships two marshaled strata estimators and returns the
// server's difference-size estimate.
func (c *Client) Estimate(ctx context.Context, localEstimator, remoteEstimator []byte) (uint64, error) {
	p, err := c.call(ctx, server.OpEstimate, server.EncodeEstimateReq(deadlineField(ctx), localEstimator, remoteEstimator), true)
	if err != nil {
		return 0, err
	}
	return server.ParseUint64Payload(p)
}
