package obs

import (
	"math"
	"sort"
	"sync"
	"time"
)

// The fixed bucket layout: bucketsPerDecade log-spaced buckets per decade
// from histMinPow (1e-6 s = 1 µs) through histMaxPow (1e2 s = 100 s), plus
// one overflow (+Inf) bucket. Values at or below the first upper bound land
// in bucket 0, so there is no separate underflow bucket. The growth factor
// is 10^(1/bucketsPerDecade) ≈ 1.585, which is the resolution behind the
// "quantile within one bucket of exact" guarantee.
const (
	histMinPow       = -6
	histMaxPow       = 2
	bucketsPerDecade = 5
	numFinite        = (histMaxPow - histMinPow) * bucketsPerDecade
	numBuckets       = numFinite + 1 // + overflow
)

// bucketBounds holds the finite upper bounds, in seconds, ascending.
var bucketBounds = func() [numFinite]float64 {
	var b [numFinite]float64
	for i := range b {
		b[i] = math.Pow(10, float64(histMinPow)+float64(i+1)/bucketsPerDecade)
	}
	// Pin the exact-decade edges so le labels render as 1e-05, 0.001, 1,
	// 100 … rather than 0.0009999999.
	for d := 0; d <= histMaxPow-histMinPow; d++ {
		if i := d*bucketsPerDecade - 1; i >= 0 {
			b[i] = math.Pow(10, float64(histMinPow+d))
		}
	}
	return b
}()

// Exemplar is the most recent traced observation that landed in a bucket:
// the request id to join against /debug/trace, the observed value in
// seconds, and when it was recorded. A zero TraceID means "no exemplar".
type Exemplar struct {
	// TraceID is the request id (X-Request-Id) of the exemplar
	// observation.
	TraceID string
	// Value is the observed latency in seconds.
	Value float64
	// Time is when the observation was recorded.
	Time time.Time
}

// Histogram is a fixed log-bucketed latency histogram (seconds). It is
// safe for concurrent use, mergeable across pools/nodes/models, and
// allocation-free on Observe. Quantile estimates are nearest-rank over the
// bucket counts and are within one bucket (a factor of 10^(1/5) ≈ 1.585)
// of the exact sample quantile. The zero Histogram is ready to use.
type Histogram struct {
	mu        sync.Mutex
	counts    [numBuckets]uint64
	sum       float64
	count     uint64
	max       float64
	exemplars [numBuckets]Exemplar
}

// bucketIdx returns the bucket index for a value in seconds.
func bucketIdx(v float64) int {
	// Binary search over the static bounds; (lo, hi] buckets, so the first
	// bound >= v is the owner.
	i := sort.SearchFloat64s(bucketBounds[:], v)
	if i >= numFinite {
		return numFinite // overflow
	}
	return i
}

// Observe records one latency observation in seconds. traceID, when
// non-empty, becomes the bucket's exemplar (most recent wins). Observe
// does not allocate.
func (h *Histogram) Observe(v float64, traceID string) {
	if math.IsNaN(v) || v < 0 {
		return
	}
	i := bucketIdx(v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.count++
	if v > h.max {
		h.max = v
	}
	if traceID != "" {
		h.exemplars[i] = Exemplar{TraceID: traceID, Value: v, Time: time.Now()}
	}
	h.mu.Unlock()
}

// Merge adds src's buckets, sum, count, max, and exemplars (newest wins)
// into h. src is locked during the copy; h must not equal src. The
// intended use is merging shared per-pool histograms into a fresh local
// accumulator, so Merge locks h and src in that order.
func (h *Histogram) Merge(src *Histogram) {
	if src == nil || src == h {
		return
	}
	h.mu.Lock()
	src.mu.Lock()
	for i := range h.counts {
		h.counts[i] += src.counts[i]
		if e := src.exemplars[i]; e.TraceID != "" && e.Time.After(h.exemplars[i].Time) {
			h.exemplars[i] = e
		}
	}
	h.sum += src.sum
	h.count += src.count
	if src.max > h.max {
		h.max = src.max
	}
	src.mu.Unlock()
	h.mu.Unlock()
}

// Snapshot returns an unshared copy of h.
func (h *Histogram) Snapshot() *Histogram {
	out := &Histogram{}
	out.Merge(h)
	return out
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observed values in seconds.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile estimates the q-quantile (0 < q <= 1) in seconds using the
// nearest-rank rule rank = ceil(q·n) over the bucket counts, returning the
// owning bucket's upper bound — an overestimate of the exact sample
// quantile by at most one bucket width. Observations in the overflow
// bucket are reported as the maximum observed value. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if i >= numFinite || h.max < bucketBounds[i] {
				// Overflow rank, or the bucket edge lies past every
				// observation: the observed maximum is the tighter (and
				// still never-underestimating) answer.
				return h.max
			}
			return bucketBounds[i]
		}
	}
	return h.max
}

// Percentiles returns the p50, p95 and p99 estimates in seconds — the three
// figures every Stats snapshot reports — all zero when empty.
func (h *Histogram) Percentiles() (p50, p95, p99 float64) {
	return h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)
}

// BucketCount is one row of a cumulative bucket dump, ready for Prometheus
// exposition: the upper bound in seconds (+Inf for the overflow row), the
// cumulative count of observations <= that bound, and the bucket's
// exemplar if any.
type BucketCount struct {
	// UpperBound is the bucket's inclusive upper edge in seconds; the last
	// row's is +Inf.
	UpperBound float64
	// Count is the cumulative observation count up to and including this
	// bucket.
	Count uint64
	// Exemplar is the bucket's most recent traced observation (zero
	// TraceID when none).
	Exemplar Exemplar
}

// Buckets returns the cumulative bucket rows, ascending by upper bound,
// ending with the +Inf row whose Count equals Count(). It allocates; it is
// a scrape-path method.
func (h *Histogram) Buckets() []BucketCount {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]BucketCount, numBuckets)
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i]
		ub := math.Inf(1)
		if i < numFinite {
			ub = bucketBounds[i]
		}
		out[i] = BucketCount{UpperBound: ub, Count: cum, Exemplar: h.exemplars[i]}
	}
	return out
}

// NearestRank returns the q-quantile (0 < q <= 1) of an ascending-sorted
// slice using the nearest-rank rule: the element with 1-based rank
// ceil(q·n). This is the repository-wide percentile definition; the naive
// index n·q/100 over-reads the rank by one element whenever q·n is
// integral (e.g. p50 of 10 samples must be the 5th smallest, not the 6th).
// Returns 0 for an empty slice.
func NearestRank(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}
