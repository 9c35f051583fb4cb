package main

import (
	"context"
	"math"
	"net"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/server"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{199, 0.95, false}, {200, 0.95, true},
		{999, 0.99, false}, {1000, 0.99, true},
		{1, 0.5, true},
	} {
		_, err := percentile(seq(c.n), c.p)
		if (err == nil) != c.ok {
			t.Errorf("percentile(%d samples, %v): err = %v, want ok=%v", c.n, c.p, err, c.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "of "+strconv.Itoa(c.n)+" samples") {
			t.Errorf("error %q does not report the sample count %d", err, c.n)
		}
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("median of no samples succeeded")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(1000) // 1..1000
	for p, want := range map[float64]float64{0.5: 500, 0.95: 950, 0.99: 990} {
		if got, err := percentile(xs, p); err != nil || got != want {
			t.Errorf("p%v = %v, %v; want %v", p*100, got, err, want)
		}
	}
	if v := tailPercentile(seq(300)); v != 285 { // p95: p99 leaves 3 beyond it
		t.Errorf("tailPercentile(300 samples) = %v, want 285", v)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) of each input.
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{seq(5), [3]float64{1.5, 3, 4.5}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}}, // extrapolates, as Python does
		{[]float64{7, 1, 4, 10}, [3]float64{1.75, 5.5, 9.25}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}

func TestRegressionBound(t *testing.T) {
	for _, c := range []struct {
		parent, change float64
		higher         bool
		rejected       bool
	}{
		{100, 109, false, false}, // 9 % slower, bound 10 %
		{100, 111, false, true},
		{100, 50, false, false}, // faster
		{100, 91, true, false},
		{100, 89, true, true},
		{100, 150, true, false},
	} {
		worse, rejected := regression(c.parent, c.change, c.higher, 0.10)
		if rejected != c.rejected {
			t.Errorf("regression(%v -> %v, higher=%v): worse %.3f rejected=%v, want %v", c.parent, c.change, c.higher, worse, rejected, c.rejected)
		}
	}
}

func TestProcParsersOnSelf(t *testing.T) {
	pid := os.Getpid()
	before, err := procCPU(pid)
	if err != nil {
		t.Fatal(err)
	}
	x := 1.0
	for end := time.Now().Add(100 * time.Millisecond); time.Now().Before(end); {
		x = math.Sqrt(x + 1)
	}
	after, err := procCPU(pid)
	if err != nil {
		t.Fatal(err)
	}
	if d := after - before; d < 50*time.Millisecond || d > 10*time.Second {
		t.Errorf("100ms of spinning moved /proc/self/stat CPU time by %v (x=%v)", d, x)
	}
	peak, err := procPeakRSS(pid)
	if err != nil {
		t.Fatal(err)
	}
	statm, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		t.Fatal(err)
	}
	rssPages, err := strconv.ParseInt(strings.Fields(string(statm))[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	if rss := rssPages * int64(os.Getpagesize()); peak < rss/2 || peak > 1<<40 {
		t.Errorf("VmHWM %d bytes against current RSS %d", peak, rss)
	}

	// A command name holding spaces and parentheses must not shift fields.
	stat := "42 (a) b (c) R 1 2 3 4 5 6 7 8 9 10 250 30 0 0"
	if d, err := parseStatCPU(stat); err != nil || d != 2800*time.Millisecond {
		t.Errorf("parseStatCPU = %v, %v; want 2.8s", d, err)
	}
	if _, err := parseVmHWM("VmRSS:\t 10 kB\n"); err == nil {
		t.Error("parseVmHWM accepted a status without VmHWM")
	}
}

func TestParseDrained(t *testing.T) {
	st, ok := parseDrained("peelserved: drained: conns=3 requests=2001 replies=2001 shed=4 conn_panics=0 frames_rejected=0 goaways=0 jobs_panicked=0")
	if !ok || st != (drainStats{requests: 2001, replies: 2001, shed: 4}) {
		t.Errorf("parseDrained = %+v, %v", st, ok)
	}
	if _, ok := parseDrained("peelserved: listening on 127.0.0.1:1"); ok {
		t.Error("parsed a listening line as a drain report")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps span 2
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 3, Start: 25, End: 35},
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

// inProcess is a serverHandle over server.New with peelserved's
// defaults, for tests.
type inProcess struct {
	srv  *server.Server
	ln   net.Listener
	done chan error
}

func startInProcess() (serverHandle, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &inProcess{srv: server.New(server.Options{Workers: 2, MaxJobs: 1024, Policy: repro.Policy{BuildRetries: 2, ReconcileRetries: 2}}), ln: ln, done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

func (s *inProcess) address() string { return s.ln.Addr().String() }
func (s *inProcess) pid() int        { return os.Getpid() }

func (s *inProcess) stop() (drainStats, error) {
	err := s.srv.Shutdown(context.Background())
	if serr := <-s.done; err == nil {
		err = serr
	}
	st := s.srv.Stats()
	return drainStats{requests: st.RequestsAccepted, replies: st.RepliesSent, shed: st.RequestsShed}, err
}

func (s *inProcess) kill() { s.stop() }

func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	srv, err := startInProcess()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.stop()
	w := &workload{rate: 1000, reqs: []request{probeRequest()}}
	d, err := newLoadGen(w, srv.address(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	// Every request was due 100ms ago: the generator is late, so each
	// latency must include that wait although the server answers at once.
	var p phase
	d.openConn(0, time.Now().Add(-100*time.Millisecond), 0, 20, &p)
	if p.ok != 10 || p.failed != 0 {
		t.Fatalf("ok=%d failed=%d (%v), want 10 ok", p.ok, p.failed, p.firstErr)
	}
	for i, e := range p.events {
		if e.lat < 80 {
			t.Errorf("request %d: latency %.3fms does not count from its due time", i, e.lat)
		}
	}
	if lag := tailPercentile(p.lag); lag < 80 {
		t.Errorf("generator lag %.3fms, want >= 80ms", lag)
	}
}
