// Command peelbench is the end-to-end and per-layer benchmark of the
// peeling server. It starts cmd/peelserved as a separate process with
// two workers, drives one of four fixed workloads over two TCP
// connections, checks every reply exactly, and prints each metric by
// name with its unit, ending with one JSON result line. Build and run it
// through run.sh, which builds both programs from the checkout first:
//
//	bash bench/run.sh --workload decode --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh --seed 2014                  # every workload, both passes
//	bash bench/run.sh compare PARENT_DIR CHANGE_DIR
//
// With --trace 0 a run reports the end-to-end metrics of the untraced
// network load. With --trace 1 it reports the per-layer metrics of a
// separate traced pass (see README.md).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

type metricSpec struct{ name, unit string }

// endToEnd are the metrics of an untraced run, as BENCHMARK.json lists
// them.
var endToEnd = []metricSpec{
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p95_ms", "ms"},
	{"setup_s", "s"},
	{"server_cpu_ms_per_op", "ms"},
	{"server_peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run, as BENCHMARK.json lists
// them.
var perLayer = []metricSpec{
	{"server.rtt_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"server.encode_us", "us"},
	{"server.parse_us", "us"},
	{"server.req_bytes", "bytes"},
	{"server.reply_bytes", "bytes"},
	{"server.requests", "count"},
	{"server.replies", "count"},
	{"server.shed", "count"},
	{"runtime.admit_wait_p50_us", "us"},
	{"runtime.admit_wait_p95_us", "us"},
	{"runtime.job_ms", "ms"},
	{"iblt.reconcile_ms", "ms"},
	{"iblt.insert_ms", "ms"},
	{"iblt.unmarshal_ms", "ms"},
	{"iblt.decode_w1_ms", "ms"},
	{"iblt.decode_w2_ms", "ms"},
	{"iblt.decode_subrounds", "count"},
	{"core.peel_w1_ms", "ms"},
	{"core.peel_w2_ms", "ms"},
	{"core.rounds", "count"},
	{"core.rounds_predicted", "count"},
	{"core.ms_per_round", "ms"},
	{"core.peel_above_ms", "ms"},
	{"core.rounds_above", "count"},
	{"core.core_frac_above", "frac"},
	{"core.core_frac_predicted", "frac"},
	{"core.ordered_peel_ms", "ms"},
	{"hypergraph.construct_ms", "ms"},
	{"mphf.build_w1_ms", "ms"},
	{"mphf.build_w2_ms", "ms"},
	{"mphf.rest_ms", "ms"},
	{"mphf.image_bytes", "bytes"},
	{"layout.open_ms", "ms"},
	{"serving.swap_ms", "ms"},
	{"serving.lookup_ns_per_key", "ns"},
	{"parallel.speedup_decode", "ratio"},
	{"parallel.speedup_peel", "ratio"},
	{"parallel.speedup_build", "ratio"},
	{"bench.gen_lag_ms", "ms"},
	{"bench.trace_overhead_frac", "frac"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run as results.json keeps it.
type record struct {
	Workload string `json:"workload"`
	Trace    bool   `json:"trace"`
	result
	Samples int                `json:"samples,omitempty"` // requests finished in the window
	Blocks  int                `json:"blocks,omitempty"`  // blocks the window's medians are taken over
	SelfMs  map[string]float64 `json:"self_ms,omitempty"` // median self time per span name
}

// serverHandle is a running server under load: peelserved in a child
// process, or an in-process server in tests.
type serverHandle interface {
	address() string
	pid() int
	stop() (drainStats, error) // drain, then check the drain report
	kill()
}

func (p *serverProc) address() string { return p.addr }
func (p *serverProc) pid() int        { return p.cmd.Process.Pid }

type config struct {
	seed      uint64
	window    time.Duration // measured part of an untraced run
	warmup    time.Duration // discarded load before the window
	setupRuns int           // server starts whose median time is setup_s
	probeReps int
	start     func() (serverHandle, error)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	workload := flag.String("workload", "", "workload to run: reconcile | decode | build | serve (default: all, untraced then traced)")
	seed := flag.Uint64("seed", 2014, "seed the workload inputs are generated from")
	seconds := flag.Int("seconds", 25, "length of the measured window of an untraced run")
	trace := flag.Int("trace", 0, "1: report the per-layer metrics of the traced pass instead")
	bin := flag.String("peelserved", "", "peelserved binary to start")
	out := flag.String("out", "", "directory for results.json and the trace files (default: none)")
	flag.Parse()

	names := workloadNames
	if *workload != "" {
		if !slices.Contains(workloadNames, *workload) {
			fatalf("unknown workload %q (want one of %v)", *workload, workloadNames)
		}
		names = []string{*workload}
	}
	if *bin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("need -peelserved, -seconds >= 1 and -trace 0|1")
	}
	cfg := config{
		seed:      *seed,
		window:    time.Duration(*seconds) * time.Second,
		warmup:    3 * time.Second,
		setupRuns: 15,
		probeReps: probeReps,
		start:     func() (serverHandle, error) { return startServer(*bin) },
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatalf("%v", err)
		}
	}
	fmt.Printf("peelbench: seed=%d seconds=%d gomaxprocs=%d cpus=%d %s\n",
		*seed, *seconds, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())

	ctx := context.Background()
	var recs []record
	for _, name := range names {
		passes := []bool{*trace == 1}
		if *workload == "" {
			passes = []bool{false, true}
		}
		for _, traced := range passes {
			var rec record
			var err error
			if traced {
				rec, err = runTraced(ctx, cfg, name, *out)
			} else {
				rec, err = runUntraced(ctx, cfg, name)
			}
			if rec.Metrics != nil {
				printRecord(rec)
			}
			if err != nil {
				fatalf("%s: %v", name, err)
			}
			recs = append(recs, rec)
		}
	}
	if *out != "" {
		if err := writeJSON(filepath.Join(*out, "results.json"), map[string]any{"seed": *seed, "seconds": *seconds, "runs": recs}); err != nil {
			fatalf("%v", err)
		}
	}
	final := combine(recs)
	line, err := json.Marshal(final)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !final.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "peelbench: "+format+"\n", args...)
	os.Exit(1)
}

// combine merges runs into the final line; with several runs metric
// names are prefixed by workload and pass.
func combine(recs []record) result {
	if len(recs) == 1 {
		return recs[0].result
	}
	out := result{Correct: true, Metrics: make(map[string]metric)}
	for _, r := range recs {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for k, v := range r.Metrics {
			out.Metrics[r.Workload+"/"+k] = v
		}
	}
	return out
}

func printRecord(r record) {
	specs := endToEnd
	if r.Trace {
		specs = perLayer
	}
	for _, s := range specs {
		if m, ok := r.Metrics[s.name]; ok {
			fmt.Printf("%-10s %-28s %16.6f %s\n", r.Workload, s.name, m.Value, m.Unit)
		}
	}
	fmt.Printf("%-10s attempted=%d failed=%d correct=%v samples=%d blocks=%d\n", r.Workload, r.Attempted, r.Failed, r.Correct, r.Samples, r.Blocks)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// metricsOf attaches units to values, refusing values JSON cannot hold.
func metricsOf(specs []metricSpec, vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		v, ok := vals[s.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", s.name, v)
		}
		out[s.name] = metric{Value: v, Unit: s.unit}
	}
	return out, nil
}

// setUp starts a server and times it from exec to its first reply; for
// a workload that swaps images, the first image install is part of it.
func setUp(cfg config, w *workload) (serverHandle, time.Duration, error) {
	t0 := time.Now()
	srv, err := cfg.start()
	if err != nil {
		return nil, 0, err
	}
	first := []request{probeRequest()}
	if w.serve != nil {
		first = append(first, w.serve.swap(0))
	}
	err = roundTrips(srv.address(), first)
	d := time.Since(t0)
	if err != nil {
		srv.kill()
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return srv, d, nil
}

// roundTrips sends reqs one at a time on a fresh connection, checking
// each reply.
func roundTrips(addr string, reqs []request) error {
	c, err := dialWire(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	for i := range reqs {
		id := uint64(i + 1)
		if err := c.send(reqs[i].op, id, reqs[i].payload); err != nil {
			return err
		}
		typ, rid, p, err := c.recv()
		if err != nil {
			return err
		}
		if rid != id {
			return fmt.Errorf("reply for request %d, want %d", rid, id)
		}
		if err := replyErr(typ, p); err != nil {
			return err
		}
		v, err := reqs[i].parse(p)
		if err == nil {
			err = reqs[i].verify(v)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// runUntraced measures workload name end to end: cfg.setupRuns server
// set-ups (the last server stays up), a warm-up, and the measured window.
func runUntraced(ctx context.Context, cfg config, name string) (record, error) {
	rec := record{Workload: name}
	rt := repro.NewRuntime(repro.RuntimeOptions{Workers: 2})
	w, err := newWorkload(ctx, name, cfg.seed, rt)
	rt.Shutdown(ctx)
	if err != nil {
		return rec, err
	}
	runtime.GC() // set-up garbage is not the window's

	var setups []float64
	var srv serverHandle
	for i := 0; i < cfg.setupRuns; i++ {
		if srv != nil {
			// Killed, not drained: a server stopped this soon after its
			// first reply may not have installed its SIGTERM handler yet.
			srv.kill()
		}
		var d time.Duration
		if srv, d, err = setUp(cfg, w); err != nil {
			return rec, err
		}
		setups = append(setups, d.Seconds())
	}
	dr, err := newLoadGen(w, srv.address(), nil)
	if err != nil {
		srv.kill()
		return rec, err
	}
	warm := dr.run(cfg.warmup, 0)
	cpu := startCPUSampler(srv.pid())
	ph := dr.run(cfg.window, 0)
	err1 := cpu.stop()
	rss, err2 := procPeakRSS(srv.pid())
	dr.close()
	st, err3 := srv.stop()
	if err := errors.Join(err1, err2, err3); err != nil {
		return rec, err
	}

	rec.Attempted = warm.sent + ph.sent
	rec.Failed = warm.failed + ph.failed
	rec.Correct = warm.mismatches+ph.mismatches == 0
	rec.Samples = len(ph.events)
	if ph.firstErr != nil || warm.firstErr != nil {
		fmt.Fprintf(os.Stderr, "peelbench: %s: first failure: %v\n", name, errors.Join(warm.firstErr, ph.firstErr))
	}
	if st.shed != 0 {
		fmt.Fprintf(os.Stderr, "peelbench: %s: server shed %d requests\n", name, st.shed)
	}
	ws, fewErr := blockStats(ph.events, w.block, ph.start, cpu.at)
	rec.Blocks = ws.blocks
	vals := map[string]float64{
		"ops_per_s":            ws.opsPerS,
		"p50_ms":               ws.p50,
		"p95_ms":               ws.p95,
		"setup_s":              median(setups),
		"server_cpu_ms_per_op": ws.cpuPerOp,
		"server_peak_rss_mb":   float64(rss) / (1 << 20),
	}
	if rec.Metrics, err = metricsOf(endToEnd, vals); err != nil {
		return rec, err
	}
	return rec, fewErr
}

// runTraced measures workload name layer by layer: the in-process
// replay with spans on and off, a traced pass through the live server,
// and the layer probes. Spans go to <out>/<name>.trace.jsonl.
func runTraced(ctx context.Context, cfg config, name, out string) (record, error) {
	rec := record{Workload: name, Trace: true}
	rt := repro.NewRuntime(repro.RuntimeOptions{Workers: 2, MaxJobs: 4})
	defer rt.Shutdown(context.Background())
	w, err := newWorkload(ctx, name, cfg.seed, rt)
	if err != nil {
		return rec, err
	}
	srv, _, err := setUp(cfg, w)
	if err != nil {
		return rec, err
	}
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()

	t0 := time.Now()
	replayTr, rttTr, probeTr := newTracer(t0, 1), newTracer(t0, 2), newTracer(t0, 3)
	_, warmErr := replay(ctx, rt, w, nil) // warms the heap and caches for the two timed passes
	on, onErr := replay(ctx, rt, w, replayTr)
	off, offErr := replay(ctx, rt, w, nil)
	dr, err := newLoadGen(w, srv.address(), rttTr)
	if err != nil {
		return rec, err
	}
	ph := dr.run(0, w.replay)
	dr.close()
	vals, err := runProbes(ctx, probeTr, cfg.probeReps, w.serve)
	if err != nil {
		return rec, err
	}
	st, err := srv.stop()
	srv = nil
	if err != nil {
		return rec, err
	}

	rec.Attempted = 3*w.replay + ph.sent
	rec.Failed = ph.failed
	rec.Correct = ph.mismatches == 0
	for _, err := range []error{warmErr, onErr, offErr} {
		if err != nil {
			rec.Failed++
			rec.Correct = false
			fmt.Fprintf(os.Stderr, "peelbench: %s: replay: %v\n", name, err)
		}
	}
	if ph.firstErr != nil {
		fmt.Fprintf(os.Stderr, "peelbench: %s: first failure: %v\n", name, ph.firstErr)
	}

	var admit []float64
	for _, d := range replayTr.durations("runtime.admit_wait") {
		admit = append(admit, us(d))
	}
	if vals["runtime.admit_wait_p50_us"], err = percentile(admit, 0.5); err != nil {
		return rec, err
	}
	if vals["runtime.admit_wait_p95_us"], err = percentile(admit, 0.95); err != nil {
		return rec, err
	}
	vals["runtime.job_ms"] = replayTr.medianMs("runtime.job")
	vals["server.rtt_ms"] = rttTr.medianMs("server.rtt")
	vals["server.overhead_ms"] = vals["server.rtt_ms"] - vals["runtime.job_ms"]
	vals["server.encode_us"] = rttTr.medianMs("server.encode") * 1e3
	vals["server.parse_us"] = rttTr.medianMs("server.parse") * 1e3
	vals["server.req_bytes"] = float64(ph.reqBytes) / float64(max(ph.sent, 1))
	vals["server.reply_bytes"] = float64(ph.replyBytes) / float64(max(ph.ok+ph.failed, 1))
	vals["server.requests"] = float64(st.requests)
	vals["server.replies"] = float64(st.replies)
	vals["server.shed"] = float64(st.shed)
	vals["bench.gen_lag_ms"] = tailPercentile(ph.lag)
	vals["bench.trace_overhead_frac"] = (on - off).Seconds() / off.Seconds()
	if rec.Metrics, err = metricsOf(perLayer, vals); err != nil {
		return rec, err
	}

	spans := slices.Concat(replayTr.spans, rttTr.spans, probeTr.spans)
	rec.SelfMs = selfTimeSummary(spans)
	if out != "" {
		if err := writeSpans(filepath.Join(out, name+".trace.jsonl"), spans); err != nil {
			return rec, err
		}
	}
	return rec, nil
}

// replay runs w.replay requests in-process on 2 goroutines, each request
// as a TryGo job of rt, and returns the wall time. Spans record the
// admission wait, the job, and the layer calls inside it.
func replay(ctx context.Context, rt *repro.Runtime, w *workload, tr *tracer) (time.Duration, error) {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, conns)
	start := time.Now()
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= w.replay {
					return
				}
				req := &w.reqs[i%len(w.reqs)]
				root := tr.root(uint64(i+1), "request")
				admit := tr.begin(root.trace, root.id, "runtime.admit_wait")
				wait, err := rt.TryGo(ctx, func(ctx context.Context, pool *repro.WorkerPool) error {
					tr.end(admit)
					job := tr.begin(root.trace, root.id, "runtime.job")
					defer tr.end(job)
					return req.job(ctx, pool, tr, job)
				})
				if err == nil {
					err = wait()
				}
				tr.end(root)
				if err != nil {
					errs[g] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start), errors.Join(errs...)
}
