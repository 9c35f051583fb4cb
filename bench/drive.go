package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// conns is the number of connections the load uses: one per CPU of the
// 2-CPU host the benchmark was sized for.
const conns = 2

// event is one finished request: when it finished and its latency in
// ms, +Inf if it failed.
type event struct {
	at  time.Time
	lat float64
}

// phase is what one pass of the load loop observed.
type phase struct {
	events     []event
	lag        []float64 // ms the generator added; see loadGen.run
	sent       int
	ok         int
	failed     int
	mismatches int // replies that parsed but failed verification
	reqBytes   int64
	replyBytes int64
	start      time.Time
	firstErr   error
}

func (p *phase) merge(q *phase) {
	p.events = append(p.events, q.events...)
	p.lag = append(p.lag, q.lag...)
	p.sent += q.sent
	p.ok += q.ok
	p.failed += q.failed
	p.mismatches += q.mismatches
	p.reqBytes += q.reqBytes
	p.replyBytes += q.replyBytes
	if p.firstErr == nil {
		p.firstErr = q.firstErr
	}
}

// fail records a failed request.
func (p *phase) fail(err error, mismatch bool) {
	p.failed++
	p.events = append(p.events, event{time.Now(), math.Inf(1)})
	if mismatch {
		p.mismatches++
	}
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// finish checks one reply, received at with latency lat: a typed error
// reply is a failure, a reply that does not parse or verify is a
// mismatch.
func (p *phase) finish(req *request, typ byte, payload []byte, at time.Time, lat time.Duration, tr *tracer, root spanRef) {
	p.replyBytes += int64(13 + len(payload))
	if err := replyErr(typ, payload); err != nil {
		p.fail(err, false)
		return
	}
	var v any
	err := tr.do(root, "server.parse", func() (err error) {
		v, err = req.parse(payload)
		return err
	})
	if err == nil {
		err = tr.do(root, "bench.verify", func() error { return req.verify(v) })
	}
	if err != nil {
		p.fail(err, true)
		return
	}
	p.ok++
	p.events = append(p.events, event{at, ms(lat)})
}

// loadGen sends a workload's requests over its connections. Request i of
// the workload, counted across connections and passes, is w.reqs[i mod
// len(w.reqs)].
type loadGen struct {
	w     *workload
	conns []*wireConn
	next  atomic.Int64 // next request index
	ids   []uint64     // last request ID per connection
	swaps int          // swaps sent so far (open loop)
	tr    *tracer      // nil: untraced
}

func newLoadGen(w *workload, addr string, tr *tracer) (*loadGen, error) {
	d := &loadGen{w: w, ids: make([]uint64, conns), tr: tr}
	for i := 0; i < conns; i++ {
		c, err := dialWire(addr)
		if err != nil {
			d.close()
			return nil, err
		}
		d.conns = append(d.conns, c)
	}
	return d, nil
}

func (d *loadGen) close() {
	for _, c := range d.conns {
		c.Close()
	}
}

// payload returns request i's bytes: the set-up encoding, or in a traced
// pass a fresh encoding inside a server.encode span.
func (d *loadGen) payload(req *request, root spanRef) []byte {
	if d.tr == nil {
		return req.payload
	}
	var p []byte
	d.tr.do(root, "server.encode", func() error { p = req.encode(); return nil })
	return p
}

// run drives the workload for dur, or until n requests have been sent
// when n > 0. In the closed loop each connection keeps one request
// outstanding, latency runs from send to reply, and lag is the client's
// turnaround from a reply to the next send. In the open loop requests
// are due at the workload's rate whatever the replies do, latency runs
// from the due time, and lag is how late the generator sent.
func (d *loadGen) run(dur time.Duration, n int) *phase {
	if d.w.rate > 0 {
		// Each open-loop sender holds its P while it sleeps in nanosleep;
		// one more P per sender keeps the reply readers from waiting for
		// the scheduler to take those Ps back, which added ms-long stalls
		// to a p95 of about 0.1ms.
		prev := runtime.GOMAXPROCS(0)
		runtime.GOMAXPROCS(prev + len(d.conns))
		defer runtime.GOMAXPROCS(prev)
	}
	per := make([]*phase, len(d.conns))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range d.conns {
		per[c] = &phase{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if d.w.rate > 0 {
				d.openConn(c, start, dur, n, per[c])
			} else {
				d.closedConn(c, start.Add(dur), n, per[c])
			}
		}()
	}
	wg.Wait()
	total := &phase{start: start}
	for _, p := range per {
		total.merge(p)
	}
	return total
}

func (d *loadGen) closedConn(c int, end time.Time, n int, p *phase) {
	conn := d.conns[c]
	var lastReply time.Time
	for {
		if n <= 0 && !time.Now().Before(end) {
			return
		}
		i := int(d.next.Add(1) - 1)
		if n > 0 && i >= n {
			return
		}
		req := &d.w.reqs[i%len(d.w.reqs)]
		root := d.tr.root(uint64(i+1), "client.request")
		payload := d.payload(req, root)
		d.ids[c]++
		id := d.ids[c]
		p.sent++
		p.reqBytes += int64(13 + len(payload))
		sent := time.Now()
		if !lastReply.IsZero() {
			p.lag = append(p.lag, ms(sent.Sub(lastReply)))
		}
		rtt := d.tr.begin(root.trace, root.id, "server.rtt")
		err := conn.send(req.op, id, payload)
		var typ byte
		var rid uint64
		var reply []byte
		if err == nil {
			typ, rid, reply, err = conn.recv()
		}
		lastReply = time.Now()
		d.tr.end(rtt)
		if err == nil && rid != id {
			err = fmt.Errorf("reply for request %d, want %d", rid, id)
		}
		if err != nil {
			p.fail(fmt.Errorf("connection %d: %w", c, err), false)
			d.tr.end(root)
			return // the connection is unusable
		}
		p.finish(req, typ, reply, lastReply, lastReply.Sub(sent), d.tr, root)
		d.tr.end(root)
	}
}

// pending is an open-loop request awaiting its reply.
type pending struct {
	req  *request
	due  time.Time
	root spanRef
	rtt  spanRef
}

// openConn runs connection c's share of the open-loop schedule: global
// request j is due at start + j/rate and goes to connection j mod
// conns. Connection 0 also sends the image swaps, one every
// serveSwapEvery of a timed pass. A reader goroutine matches replies to
// requests by ID, since the server answers in completion order.
func (d *loadGen) openConn(c int, start time.Time, dur time.Duration, n int, p *phase) {
	conn := d.conns[c]
	interval := time.Duration(float64(time.Second) / d.w.rate)
	var mu sync.Mutex
	inflight := make(map[uint64]pending)
	senderDone := false
	readerDone := make(chan struct{})
	var rp phase // the reader's share; merged after it exits
	go func() {
		defer close(readerDone)
		for {
			typ, id, reply, err := conn.recv()
			now := time.Now()
			mu.Lock()
			q, ok := inflight[id]
			delete(inflight, id)
			last := senderDone && len(inflight) == 0
			mu.Unlock()
			if err != nil {
				return // requests still in flight are failed by the sender
			}
			if !ok {
				rp.fail(fmt.Errorf("connection %d: reply for unknown request %d", c, id), false)
				return
			}
			d.tr.end(q.rtt)
			rp.finish(q.req, typ, reply, now, now.Sub(q.due), d.tr, q.root)
			d.tr.end(q.root)
			if last {
				return
			}
		}
	}()

	runtime.LockOSThread() // for sleepUntil
	defer runtime.UnlockOSThread()
	nextSwap := start.Add(serveSwapEvery)
	var swapN int // connection 0 alone sends swaps and keeps d.swaps
	if c == 0 {
		swapN = d.swaps
	}
	send := func(req *request, due time.Time, trace uint64) bool {
		now := sleepUntil(due)
		p.lag = append(p.lag, ms(now.Sub(due)))
		root := d.tr.root(trace, "client.request")
		payload := d.payload(req, root)
		d.ids[c]++
		id := d.ids[c]
		q := pending{req: req, due: due, root: root, rtt: d.tr.begin(root.trace, root.id, "server.rtt")}
		mu.Lock()
		inflight[id] = q
		mu.Unlock()
		p.sent++
		p.reqBytes += int64(13 + len(payload))
		if err := conn.send(req.op, id, payload); err != nil {
			p.fail(fmt.Errorf("connection %d: %w", c, err), false)
			mu.Lock()
			delete(inflight, id)
			mu.Unlock()
			return false
		}
		return true
	}
	for j := c; ; j += conns {
		due := start.Add(time.Duration(j) * interval)
		if (n > 0 && j >= n) || (n <= 0 && !due.Before(start.Add(dur))) {
			break
		}
		if c == 0 && n <= 0 && !nextSwap.After(due) {
			req := &d.w.swaps[swapN%len(d.w.swaps)]
			swapN++
			if !send(req, nextSwap, uint64(1<<31+swapN)) {
				break
			}
			nextSwap = nextSwap.Add(serveSwapEvery)
		}
		if !send(&d.w.reqs[j%len(d.w.reqs)], due, uint64(j+1)) {
			break
		}
	}
	if c == 0 {
		d.swaps = swapN
	}
	mu.Lock()
	senderDone = true
	empty := len(inflight) == 0
	mu.Unlock()
	if empty {
		conn.nc.SetReadDeadline(time.Now()) // wake the reader: nothing is owed
	} else {
		conn.nc.SetReadDeadline(time.Now().Add(30 * time.Second))
	}
	<-readerDone
	conn.nc.SetReadDeadline(time.Time{})
	mu.Lock()
	for range inflight {
		p.fail(fmt.Errorf("connection %d: no reply", c), false)
	}
	mu.Unlock()
	p.merge(&rp)
}

// sleepUntil sleeps until t by nanosleep(2) and returns the time it woke.
// Go's timers wake up to a millisecond late, which at 10 000 requests/s
// would dominate the latencies the open loop measures; nanosleep on a
// locked OS thread wakes within tens of microseconds.
func sleepUntil(t time.Time) time.Time {
	for {
		now := time.Now()
		d := t.Sub(now)
		if d <= 0 {
			return now
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}
