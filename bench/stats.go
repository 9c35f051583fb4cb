package main

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile: a
// p95 needs at least 200 samples, a p99 at least 1000.
const minTail = 10

// percentile returns the p-quantile (0 < p < 1) of xs by the nearest-rank
// rule. It refuses, with an error naming the sample count, when fewer
// than minTail samples lie beyond it.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p*100)
	}
	if beyond := float64(n) * (1 - p); p > 0.5 && beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples leaves %.1f beyond it, want >= %d", p*100, n, beyond, minTail)
	}
	return nearestRank(xs, p), nil
}

func nearestRank(xs []float64, p float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// median is percentile(xs, 0.5) for callers that have checked xs is
// not empty.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// tailPercentile returns the highest of p99, p95 and p50 that has at
// least minTail samples beyond it.
func tailPercentile(xs []float64) float64 {
	for _, p := range []float64{0.99, 0.95} {
		if v, err := percentile(xs, p); err == nil {
			return v
		}
	}
	return median(xs)
}

// quartiles returns the first quartile, median and third quartile of xs
// by the exclusive method of Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// errFewSamples marks a window too short for one block; its numbers are
// printed but the run fails.
var errFewSamples = errors.New("too few samples")

// blockRequests is the block size of a closed-loop window: the fewest
// requests whose p95 has minTail samples beyond it.
const blockRequests = 200

// windowStats are the end-to-end timings of a window.
type windowStats struct {
	opsPerS, p50, p95, cpuPerOp float64
	blocks                      int
}

// blockStats splits a window's finished requests, in completion order,
// into consecutive blocks of size requests, and returns the median over
// blocks of each block's throughput, p50 and p95 latency, and server CPU
// per request; start is when the window began and cpuAt gives the
// server's CPU time at any moment of it. A trailing partial block is
// dropped. Medians over blocks keep a burst of interference from other
// tenants of the host, shorter than half the window, out of the numbers.
// With fewer than size requests the whole window is one block, its p95
// is unguarded, and the error wraps errFewSamples.
func blockStats(events []event, size int, start time.Time, cpuAt func(time.Time) time.Duration) (windowStats, error) {
	if len(events) == 0 {
		return windowStats{}, fmt.Errorf("%w: no request finished", errFewSamples)
	}
	var few error
	if len(events) < size {
		few = fmt.Errorf("%w: %d requests finished, a block needs %d", errFewSamples, len(events), size)
		size = len(events)
	}
	ev := slices.Clone(events)
	slices.SortFunc(ev, func(a, b event) int { return a.at.Compare(b.at) })
	var rate, p50, p95, cpu []float64
	prev := start
	lat := make([]float64, size)
	for i := 0; i+size <= len(ev); i += size {
		for j, e := range ev[i : i+size] {
			lat[j] = e.lat
		}
		end := ev[i+size-1].at
		rate = append(rate, float64(size)/end.Sub(prev).Seconds())
		p50 = append(p50, nearestRank(lat, 0.5))
		p95 = append(p95, nearestRank(lat, 0.95))
		cpu = append(cpu, ms(cpuAt(end)-cpuAt(prev))/float64(size))
		prev = end
	}
	return windowStats{median(rate), median(p50), median(p95), median(cpu), len(rate)}, few
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// regression reports how much worse change is than parent as a share of
// parent (positive means worse, in the metric's own direction) and
// whether that exceeds bound.
func regression(parent, change float64, higherIsBetter bool, bound float64) (worse float64, rejected bool) {
	if parent == 0 {
		return 0, false
	}
	worse = (change - parent) / math.Abs(parent)
	if higherIsBetter {
		worse = -worse
	}
	return worse, worse > bound
}
