package serve

import (
	"context"
	"slices"
	"testing"
	"time"

	"tbnet/internal/obs"
)

// TestServerInferTracedSteadyStateAllocs extends the PR 4 allocation lock to
// the tracing path: steady-state Server.Infer with a live tracer — span
// self-start, worker stage marks, per-world execution breakdown, histogram
// exemplars — must stay within the same per-op budget as the untraced path.
func TestServerInferTracedSteadyStateAllocs(t *testing.T) {
	dep := testDeployment(t, 11)
	tr := obs.NewTracer(4096)
	srv, err := New(dep, Config{Workers: 1, MaxBatch: 1, MaxDelay: time.Microsecond, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	x := randSamples(1, 12)[0]
	for i := 0; i < 8; i++ { // warm replicas, arenas, scratch, span ring
		if _, err := srv.Infer(ctx, x); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := srv.Infer(ctx, x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > allocLimit {
		t.Fatalf("steady-state traced Server.Infer allocates %.1f/op, budget %d", allocs, allocLimit)
	}
	if n := len(tr.Snapshot(0, 0)); n == 0 {
		t.Fatal("tracer recorded no spans under traced load")
	}
}

// TestServerSpanTimeline drives one request carrying an ingress span through
// the pool and checks the worker filled in the full timeline: model, queue
// wait, batch formation, both execution worlds — and that the request id
// surfaces as the latency histogram's exemplar (the /debug/trace join).
func TestServerSpanTimeline(t *testing.T) {
	dep := testDeployment(t, 21)
	tr := obs.NewTracer(64)
	srv, err := New(dep, Config{Workers: 1, MaxBatch: 2, MaxDelay: time.Millisecond, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	span := tr.Start("req-join")
	ctx := obs.ContextWith(context.Background(), span)
	if _, err := srv.Infer(ctx, randSamples(1, 22)[0]); err != nil {
		t.Fatal(err)
	}
	span.Finish(false)
	var d obs.SpanData
	found := false
	for _, s := range tr.Snapshot(0, 0) {
		if s.ID == "req-join" {
			d, found = s, true
		}
	}
	if !found {
		t.Fatalf("span req-join not in snapshot: %+v", tr.Snapshot(0, 0))
	}
	if d.Model != DefaultModel {
		t.Errorf("span model = %q, want %q", d.Model, DefaultModel)
	}
	for _, stage := range []string{"ingress", "queued", "batched", "ree", "tee"} {
		if d.StageMs(stage) <= 0 {
			t.Errorf("stage %q missing from timeline %+v", stage, d.Stages)
		}
	}
	if sum := d.StageMs("queued") + d.StageMs("batched") + d.StageMs("ree") + d.StageMs("tee"); sum > d.WallMs {
		t.Errorf("stage sum %.3fms exceeds wall %.3fms", sum, d.WallMs)
	}
	var exemplar string
	for _, b := range srv.Stats().LatencyHist.Buckets() {
		if b.Exemplar.TraceID != "" {
			exemplar = b.Exemplar.TraceID
		}
	}
	if exemplar != "req-join" {
		t.Errorf("histogram exemplar = %q, want req-join", exemplar)
	}
}

// TestServerTracesEveryConcurrentRequest: concurrent callers coalesced into
// shared runs each get a self-started span — each finished, each with its
// queue wait — and the queue-wait histogram counts them like any other
// request.
func TestServerTracesEveryConcurrentRequest(t *testing.T) {
	dep := testDeployment(t, 23)
	tr := obs.NewTracer(64)
	srv, err := New(dep, Config{Workers: 1, MaxBatch: 4, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	inferAll(t, srv, randSamples(4, 24))
	spans := tr.Snapshot(0, 0)
	if len(spans) != 4 {
		t.Fatalf("tracer holds %d finished spans after 4 concurrent requests", len(spans))
	}
	for _, s := range spans {
		if s.StageMs("queued") <= 0 {
			t.Errorf("request span lacks its queued stage: %+v", s.Stages)
		}
	}
	if st := srv.Stats(); st.QueueWaitHist.Count() != uint64(st.Requests) || st.Requests != 4 {
		t.Errorf("queue-wait observations = %d for %d requests", st.QueueWaitHist.Count(), st.Requests)
	}
}

// TestTracingOverhead locks the acceptance bound: tracing enabled costs at
// most 10% (with a 5µs floor) on steady-state Server.Infer. One traced and
// one untraced server run side by side; each round times one request on
// each, back to back, the one that goes first alternating, and the gate is
// on the median of the per-round differences. A shared host whose speed
// drifts moves both legs of a round together, so the drift cancels out of
// each difference instead of landing between two best-of runs taken a
// second apart.
func TestTracingOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison is meaningless under -short (race) instrumentation")
	}
	start := func(tr *obs.Tracer) *Server {
		srv, err := New(testDeployment(t, 31), Config{Workers: 1, MaxBatch: 1, MaxDelay: time.Microsecond, Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return srv
	}
	traced, untraced := start(obs.NewTracer(4096)), start(nil)
	ctx := context.Background()
	x := randSamples(1, 32)[0]
	infer := func(srv *Server) float64 {
		t0 := time.Now()
		if _, err := srv.Infer(ctx, x); err != nil {
			t.Fatal(err)
		}
		return float64(time.Since(t0).Nanoseconds())
	}
	for i := 0; i < 8; i++ { // warm replicas, arenas, scratch, span ring
		infer(traced)
		infer(untraced)
	}
	const rounds = 2001
	diffs, base := make([]float64, rounds), make([]float64, rounds)
	for r := range rounds {
		var on, off float64
		if r%2 == 0 {
			on, off = infer(traced), infer(untraced)
		} else {
			off, on = infer(untraced), infer(traced)
		}
		diffs[r], base[r] = on-off, off
	}
	diff, off := median(diffs), median(base)
	// 10% + a 5µs floor: where the op is tens of µs the floor is the slack.
	if slack := max(off*0.10, 5000); diff > slack {
		t.Fatalf("tracing overhead: traced costs %.0f ns/op more than untraced %.0f ns/op (median of %d rounds; >10%% + floor)",
			diff, off, rounds)
	}
	t.Logf("traced costs %.0f ns/op more than untraced %.0f ns/op (%.2f%%; median of %d rounds)",
		diff, off, 100*diff/off, rounds)
}

// median returns the middle value of xs (the upper one of an even count),
// reordering xs.
func median(xs []float64) float64 {
	slices.Sort(xs)
	return xs[len(xs)/2]
}

// BenchmarkInferTraced is BenchmarkInferAllocs with the span pipeline live;
// BenchmarkInferUntraced is its pair, so one run shows the tracing overhead.
func BenchmarkInferTraced(b *testing.B) {
	benchInfer(b, obs.NewTracer(4096))
}

// BenchmarkInferUntraced is the tracing-disabled baseline of the pair.
func BenchmarkInferUntraced(b *testing.B) {
	benchInfer(b, nil)
}

func benchInfer(b *testing.B, tr *obs.Tracer) {
	dep := testDeployment(b, 31)
	srv, err := New(dep, Config{Workers: 1, MaxBatch: 1, MaxDelay: time.Microsecond, Tracer: tr})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	x := randSamples(1, 33)[0]
	for i := 0; i < 8; i++ {
		if _, err := srv.Infer(ctx, x); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Infer(ctx, x); err != nil {
			b.Fatal(err)
		}
	}
}
