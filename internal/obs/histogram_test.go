package obs

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestNearestRankSmallN locks the nearest-rank rule on the small-n tables
// where the old samples[(n*q)/100] indexing over-read the rank.
func TestNearestRankSmallN(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1) // 1..n, sorted
		}
		return s
	}
	cases := []struct {
		n    int
		q    float64
		want float64 // 1-based rank value = ceil(q*n)
	}{
		{1, 0.5, 1}, {1, 0.99, 1},
		{4, 0.25, 1}, {4, 0.5, 2}, {4, 0.75, 3}, {4, 1.0, 4},
		{10, 0.5, 5},   // old: index n/2 = 6th smallest
		{10, 0.95, 10}, // ceil(9.5) = 10
		{10, 0.99, 10},
		{20, 0.95, 19}, // old: (20*95)/100 = index 19 → 20th (max)
		{100, 0.5, 50}, // old: index 50 → 51st
		{100, 0.95, 95},
		{100, 0.99, 99}, // old: index 99 → 100th (max)
		{101, 0.99, 100},
	}
	for _, c := range cases {
		if got := NearestRank(seq(c.n), c.q); got != c.want {
			t.Errorf("NearestRank(n=%d, q=%g) = %g, want %g", c.n, c.q, got, c.want)
		}
	}
	if got := NearestRank(nil, 0.5); got != 0 {
		t.Errorf("NearestRank(empty) = %g, want 0", got)
	}
}

// TestHistogramQuantileWithinOneBucket locks the histogram quantiles
// against the old sorted-sample path: for every probed q the estimate must
// be >= the exact nearest-rank value and at most one bucket width above it.
func TestHistogramQuantileWithinOneBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const growth = 1.5849 // 10^(1/5), one bucket width
	for trial := 0; trial < 4; trial++ {
		h := &Histogram{}
		var samples []float64
		n := 10 + rng.Intn(3000)
		for i := 0; i < n; i++ {
			// Lognormal-ish latencies centered around ~2 ms.
			v := 0.002 * math.Exp(rng.NormFloat64()*1.5)
			samples = append(samples, v)
			h.Observe(v, "")
		}
		sort.Float64s(samples)
		for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 1.0} {
			exact := NearestRank(samples, q)
			est := h.Quantile(q)
			if est < exact || est > exact*growth*1.0001 {
				t.Errorf("trial %d n=%d q=%g: estimate %g outside [%g, %g]",
					trial, n, q, est, exact, exact*growth)
			}
		}
	}
}

func TestHistogramDecadeEdges(t *testing.T) {
	h := &Histogram{}
	h.Observe(0.001, "") // exactly 1 ms: buckets are (lo, hi], so le=0.001 owns it
	found := false
	for _, b := range h.Buckets() {
		if b.UpperBound == 0.001 {
			found = true
			if b.Count != 1 {
				t.Errorf("le=0.001 cumulative = %d, want 1", b.Count)
			}
		} else if b.UpperBound < 0.001 && b.Count != 0 {
			t.Errorf("le=%g cumulative = %d, want 0", b.UpperBound, b.Count)
		}
	}
	if !found {
		t.Fatal("no bucket with exact upper bound 0.001; decade edges not pinned")
	}
}

func TestHistogramBucketsInvariants(t *testing.T) {
	h := &Histogram{}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		h.Observe(rng.Float64()*rng.Float64()*10, "")
	}
	h.Observe(1e-9, "") // below first bound → bucket 0
	h.Observe(1e6, "")  // overflow
	bs := h.Buckets()
	if !math.IsInf(bs[len(bs)-1].UpperBound, 1) {
		t.Fatalf("last bucket bound = %g, want +Inf", bs[len(bs)-1].UpperBound)
	}
	if bs[len(bs)-1].Count != h.Count() {
		t.Fatalf("+Inf cumulative %d != count %d", bs[len(bs)-1].Count, h.Count())
	}
	for i := 1; i < len(bs); i++ {
		if bs[i].UpperBound <= bs[i-1].UpperBound {
			t.Fatalf("bucket bounds not ascending at %d: %g <= %g", i, bs[i].UpperBound, bs[i-1].UpperBound)
		}
		if bs[i].Count < bs[i-1].Count {
			t.Fatalf("cumulative counts decrease at %d: %d < %d", i, bs[i].Count, bs[i-1].Count)
		}
	}
	if h.max < 1e6 {
		t.Fatalf("max = %g, want >= 1e6", h.max)
	}
}

func TestHistogramMergeAndExemplars(t *testing.T) {
	a, b := &Histogram{}, &Histogram{}
	a.Observe(0.010, "req-old")
	time.Sleep(2 * time.Millisecond)
	b.Observe(0.010, "req-new")
	b.Observe(5.0, "req-slow")
	m := &Histogram{}
	m.Merge(a)
	m.Merge(b)
	if m.Count() != 3 {
		t.Fatalf("merged count = %d, want 3", m.Count())
	}
	if got, want := m.Sum(), 5.020; math.Abs(got-want) > 1e-9 {
		t.Fatalf("merged sum = %g, want %g", got, want)
	}
	var got10, gotSlow string
	for _, bc := range m.Buckets() {
		switch {
		case bc.Exemplar.Value == 0.010:
			got10 = bc.Exemplar.TraceID
		case bc.Exemplar.Value == 5.0:
			gotSlow = bc.Exemplar.TraceID
		}
	}
	if got10 != "req-new" {
		t.Errorf("10ms bucket exemplar = %q, want req-new (newest wins)", got10)
	}
	if gotSlow != "req-slow" {
		t.Errorf("slow bucket exemplar = %q, want req-slow", gotSlow)
	}
	// Self-merge and nil-merge are no-ops, not deadlocks.
	m.Merge(m)
	m.Merge(nil)
	if m.Count() != 3 {
		t.Fatalf("self-merge changed count to %d", m.Count())
	}
}

func TestHistogramObserveNoAlloc(t *testing.T) {
	h := &Histogram{}
	id := "req-42"
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.003, id) }); n != 0 {
		t.Fatalf("Observe allocates %v times per call, want 0", n)
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	h := &Histogram{}
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty quantile = %g, want 0", got)
	}
	h.Observe(math.NaN(), "")
	h.Observe(-1, "")
	if h.Count() != 0 {
		t.Fatalf("NaN/negative observations were counted: %d", h.Count())
	}
}
