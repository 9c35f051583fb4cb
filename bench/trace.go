package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one request share a trace ID; Parent is the ID of
// the span that made the call (0 for a request's root).
type span struct {
	Trace  uint64 `json:"trace_id"`
	ID     uint64 `json:"id"`
	Name   string `json:"name"`
	Parent uint64 `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of one pass in memory until the run ends. A nil
// *tracer records nothing, which is how a pass runs with spans off.
type tracer struct {
	t0    time.Time
	base  uint64 // added to trace and span IDs, so passes written to one file stay distinct
	mu    sync.Mutex
	spans []span
}

// newTracer starts a pass whose times count from t0; pass numbers the
// pass within the run.
func newTracer(t0 time.Time, pass int) *tracer {
	return &tracer{t0: t0, base: uint64(pass) << 32}
}

// spanRef names an open span; the zero value belongs to a nil tracer.
type spanRef struct {
	trace, id uint64
	idx       int
}

// root opens the root span of request trace.
func (t *tracer) root(trace uint64, name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	return t.begin(t.base+trace, 0, name)
}

func (t *tracer) begin(trace, parent uint64, name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.base + uint64(len(t.spans)+1)
	t.spans = append(t.spans, span{Trace: trace, ID: id, Name: name, Parent: parent, Start: now})
	return spanRef{trace: trace, id: id, idx: len(t.spans) - 1}
}

func (t *tracer) end(r spanRef) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[r.idx].End = now
	t.mu.Unlock()
}

// do runs f inside a span named name, a child of parent.
func (t *tracer) do(parent spanRef, name string, f func() error) error {
	r := t.begin(parent.trace, parent.id, name)
	err := f()
	t.end(r)
	return err
}

// durations returns the duration of every closed span named name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// medianMs is the median duration of the spans named name, in ms.
func (t *tracer) medianMs(name string) float64 {
	var xs []float64
	for _, d := range t.durations(name) {
		xs = append(xs, ms(d))
	}
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its children cover.
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		slices.SortFunc(kids, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// selfTimeSummary is the median self time in ms of each span name.
func selfTimeSummary(spans []span) map[string]float64 {
	self := selfTimes(spans)
	byName := make(map[string][]float64)
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(self[s.ID])/1e6)
	}
	out := make(map[string]float64, len(byName))
	for name, xs := range byName {
		out[name] = median(xs)
	}
	return out
}

// writeSpans writes spans as JSON lines, ordered by start time.
func writeSpans(path string, spans []span) error {
	spans = slices.Clone(spans)
	slices.SortStableFunc(spans, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
