package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of sorted by linear interpolation between
// the two nearest ranks (rank (n-1)·q), so the median of an even count is
// the mean of its middle pair. sorted must be non-empty and ascending.
func quantile(sorted []float64, q float64) float64 {
	h := float64(len(sorted)-1) * q
	lo := int(math.Floor(h))
	hi := int(math.Ceil(h))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(h-float64(lo))
}

// median sorts a copy of xs and returns its 0.5-quantile; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// binLen is the grain of the measured window's bookkeeping: the host's speed
// index, the process's CPU time and the completed work are all taken per bin.
// A second holds twenty index readings, enough for a steady median, and is
// short beside the minutes a host spell lasts.
const binLen = time.Second

// binCount is how many bins cover [0, window); the last may be shorter.
func binCount(window time.Duration) int {
	return int((window + binLen - 1) / binLen)
}

// binOf returns the bin an offset into the window falls in; offsets outside
// [0, window) fall in none.
func binOf(off, window time.Duration) (int, bool) {
	if off < 0 || off >= window {
		return 0, false
	}
	return int(off / binLen), true
}

// binSpan is the length of bin b of the window.
func binSpan(b int, window time.Duration) time.Duration {
	if end := time.Duration(b+1) * binLen; end > window {
		return window - time.Duration(b)*binLen
	}
	return binLen
}

// atReferenceSpeed is what an interval of length d would have read on a host
// of speed index 1, given that it was measured at index h and held cpu of CPU
// time (same unit as d, capped at d). Only CPU time stretches with the host: a
// wait on a timer does not. At index h the cpu part cost h times its
// reference price, so cpu·(1 − 1/h) of the interval is the host's doing and is
// taken out. With cpu = d (an interval that is all computation) this is d/h.
func atReferenceSpeed(d, cpu, h float64) float64 {
	if cpu > d {
		cpu = d
	}
	return d - cpu*(1-1/h)
}

// quartiles returns the first quartile, median and third quartile of xs the
// way Python's statistics.quantiles(xs, n=4) does (the exclusive method), so
// `bench compare` and the acceptance check that reads the same runs agree on
// what a spread is. xs needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance of xs as a share of its median: the
// run-to-run noise figure every bound is compared against. Fewer than two
// runs have no spread.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// selfTime is a rung's own cost: its median minus the medians of the rungs
// it calls. A negative difference (the rungs were timed in separate calls, so
// noise can exceed a thin layer's cost) is clamped to zero and flagged.
func selfTime(total float64, below ...float64) (self float64, clamped bool) {
	self = total
	for _, b := range below {
		self -= b
	}
	if self < 0 {
		return 0, true
	}
	return self, false
}
