package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"tbnet/internal/core"
	"tbnet/internal/tee"
	"tbnet/internal/tensor"
	"tbnet/internal/zoo"
)

// testDeployment builds a deployed tiny two-branch model without the
// training pipeline: serving behaviour does not depend on learned weights,
// only on the staged protocol, so a randomly initialized finalized model
// keeps these tests fast.
func testDeployment(t testing.TB, seed uint64) *core.Deployment {
	return testDeploymentOn(t, seed, tee.RaspberryPi3())
}

// testDeploymentOn is testDeployment on an explicit hardware backend.
func testDeploymentOn(t testing.TB, seed uint64, device tee.Device) *core.Deployment {
	t.Helper()
	victim := zoo.BuildVGG(zoo.TinyVGGConfig(4), tensor.NewRNG(seed))
	tb := core.NewTwoBranch(victim, seed+1)
	tb.Finalized = true
	dep, err := core.Deploy(tb, device, []int{1, 3, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

func randSamples(n int, seed uint64) []*tensor.Tensor {
	rng := tensor.NewRNG(seed)
	xs := make([]*tensor.Tensor, n)
	for i := range xs {
		x := tensor.New(1, 3, 16, 16)
		rng.FillNormal(x, 0, 1)
		xs[i] = x
	}
	return xs
}

// inferAll sends every sample as its own concurrent request and returns the
// labels in order.
func inferAll(t testing.TB, srv *Server, xs []*tensor.Tensor) []int {
	t.Helper()
	labels, errs := make([]int, len(xs)), make([]error, len(xs))
	var wg sync.WaitGroup
	for i := range xs {
		wg.Add(1)
		go func(i int) { defer wg.Done(); labels[i], errs[i] = srv.Infer(context.Background(), xs[i]) }(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	return labels
}

// TestServerMatchesSequential is the acceptance regression: ≥4 concurrent
// in-flight Infer calls (run under -race in CI) must return exactly the
// labels sequential single-sample inference produces.
func TestServerMatchesSequential(t *testing.T) {
	dep := testDeployment(t, 1)
	const n = 16
	xs := randSamples(n, 2)
	want := make([]int, n)
	for i, x := range xs {
		labels, err := dep.Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = labels[0]
	}

	srv, err := New(dep, Config{Workers: 4, MaxBatch: 4, MaxDelay: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Release all callers at once so at least the pool width is in flight
	// concurrently.
	start := make(chan struct{})
	got := make([]int, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i], errs[i] = srv.Infer(context.Background(), xs[i])
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if got[i] != want[i] {
			t.Fatalf("request %d: served label %d != sequential %d", i, got[i], want[i])
		}
	}
	st := srv.Stats()
	if st.Requests != n {
		t.Fatalf("stats requests = %d, want %d", st.Requests, n)
	}
	if st.Workers != 4 {
		t.Fatalf("stats workers = %d, want 4", st.Workers)
	}
	if st.P50Latency <= 0 || st.P99Latency < st.P50Latency {
		t.Fatalf("modeled latency percentiles inconsistent: p50 %g p99 %g",
			st.P50Latency, st.P99Latency)
	}
	if st.ModeledThroughput <= 0 {
		t.Fatalf("modeled throughput = %g, want > 0", st.ModeledThroughput)
	}
}

// TestServerBatchesUnderLoad checks that micro-batching is observable: with
// one worker and a generous flush window, concurrent requests coalesce into
// batches larger than one.
func TestServerBatchesUnderLoad(t *testing.T) {
	dep := testDeployment(t, 10)
	srv, err := New(dep, Config{Workers: 1, MaxBatch: 4, MaxDelay: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const n = 12
	xs := randSamples(n, 11)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			if _, err := srv.Infer(context.Background(), xs[i]); err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	st := srv.Stats()
	if st.LargestBatch <= 1 {
		t.Fatalf("largest batch = %d, want > 1 under concurrent load", st.LargestBatch)
	}
	if st.MeanBatch <= 1 {
		t.Fatalf("mean batch = %g, want > 1 under concurrent load", st.MeanBatch)
	}
	if st.Batches >= st.Requests {
		t.Fatalf("batches %d not fewer than requests %d", st.Batches, st.Requests)
	}
}

func TestServerAcceptsCHWInput(t *testing.T) {
	dep := testDeployment(t, 30)
	srv, err := New(dep, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	x4 := randSamples(1, 31)[0]
	want, err := srv.Infer(context.Background(), x4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := srv.Infer(context.Background(), x4.Reshape(3, 16, 16))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("[C,H,W] input label %d != [1,C,H,W] label %d", got, want)
	}
}

// TestServerStatsP95AndQueueWait: the stats snapshot carries the modeled p95
// tail and the realized host-side batching delay the fleet layer routes on.
func TestServerStatsP95AndQueueWait(t *testing.T) {
	dep := testDeployment(t, 35)
	srv, err := New(dep, Config{Workers: 1, MaxBatch: 8, MaxDelay: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// A lone request waits out the full flush delay, so the average queue
	// wait must reflect (a good part of) MaxDelay.
	if _, err := srv.Infer(context.Background(), randSamples(1, 36)[0]); err != nil {
		t.Fatal(err)
	}
	for _, x := range randSamples(6, 37) {
		if _, err := srv.Infer(context.Background(), x); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	if st.P95Micros <= 0 {
		t.Fatalf("p95 = %g µs, want > 0", st.P95Micros)
	}
	if lo, hi := st.P50Latency*1e6, st.P99Latency*1e6; st.P95Micros < lo || st.P95Micros > hi {
		t.Fatalf("p95 %g µs outside [p50 %g, p99 %g]", st.P95Micros, lo, hi)
	}
	if st.AvgQueueWaitMicros < 1000 {
		t.Fatalf("avg queue wait = %g µs, want ≥ 1ms with a 30ms flush delay", st.AvgQueueWaitMicros)
	}
}

// TestServerLoadProbes: the live queue-depth/in-flight probes a routing layer
// consults settle back to zero once the server drains.
func TestServerLoadProbes(t *testing.T) {
	dep := testDeployment(t, 38)
	srv, err := New(dep, Config{Workers: 2, MaxBatch: 2, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if srv.QueueDepth() != 0 || srv.InFlight() != 0 {
		t.Fatalf("idle probes: queue %d, in-flight %d, want 0/0", srv.QueueDepth(), srv.InFlight())
	}
	inferAll(t, srv, randSamples(6, 39))
	if n := srv.Stats().LatencyHist.Count(); n != 6 {
		t.Fatalf("latency histogram count = %d, want 6", n)
	}
	srv.Close()
	if srv.QueueDepth() != 0 || srv.InFlight() != 0 {
		t.Fatalf("drained probes: queue %d, in-flight %d, want 0/0", srv.QueueDepth(), srv.InFlight())
	}
}

func TestServerRejectsBadShapes(t *testing.T) {
	dep := testDeployment(t, 40)
	srv, err := New(dep, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	for _, x := range []*tensor.Tensor{
		nil,
		tensor.New(2, 3, 16, 16), // multi-sample
		tensor.New(1, 3, 8, 8),   // wrong spatial size
		tensor.New(1, 5, 16, 16), // wrong channels
		tensor.New(16, 16),       // wrong rank
	} {
		if _, err := srv.Infer(ctx, x); !errors.Is(err, core.ErrShape) {
			t.Fatalf("shape %v: err = %v, want ErrShape", x, err)
		}
	}
}

func TestServerCloseDrainsAndRejects(t *testing.T) {
	dep := testDeployment(t, 50)
	srv, err := New(dep, Config{Workers: 2, MaxBatch: 2, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	xs := randSamples(8, 51)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make([]error, len(xs))
	for i := range xs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = srv.Infer(ctx, xs[i])
		}(i)
	}
	wg.Wait() // all in-flight work resolved before closing
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("pre-close request %d: %v", i, err)
		}
	}
	if _, err := srv.Infer(ctx, xs[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close Infer err = %v, want ErrClosed", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestServerDropsExpiredRequestsAtFlush: a request whose context dies while
// it waits in the queue is dropped at batch formation — no protocol run, no
// modeled device time, absent from both request and error counters.
func TestServerDropsExpiredRequestsAtFlush(t *testing.T) {
	dep := testDeployment(t, 55)
	srv, err := New(dep, Config{Workers: 1, MaxBatch: 8, MaxDelay: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := srv.Infer(ctx, randSamples(1, 56)[0]); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired Infer err = %v, want DeadlineExceeded", err)
	}
	srv.Close() // drains the queue, flushing (and dropping) the request
	st := srv.Stats()
	if st.Requests != 0 || st.Errors != 0 {
		t.Fatalf("abandoned request was executed: requests %d, errors %d, want 0/0",
			st.Requests, st.Errors)
	}
}

func TestServerContextCancellation(t *testing.T) {
	dep := testDeployment(t, 60)
	srv, err := New(dep, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.Infer(ctx, randSamples(1, 61)[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Infer err = %v, want context.Canceled", err)
	}
}

func TestServerConfigValidation(t *testing.T) {
	dep := testDeployment(t, 70)
	for _, cfg := range []Config{
		{Workers: -1},
		{MaxBatch: -2},
		{MaxDelay: -time.Second},
	} {
		if _, err := New(dep, cfg); !errors.Is(err, ErrConfig) {
			t.Fatalf("config %+v: err = %v, want ErrConfig", cfg, err)
		}
	}
	if _, err := New(nil, Config{}); !errors.Is(err, ErrConfig) {
		t.Fatalf("nil deployment: err = %v, want ErrConfig", err)
	}
}

// TestServerReplicasRespectSecureMemory: each replica is sized for MaxBatch
// samples, so a device that cannot hold the batched working set must reject
// server construction rather than overcommit secure memory.
func TestServerReplicasRespectSecureMemory(t *testing.T) {
	victim := zoo.BuildVGG(zoo.TinyVGGConfig(4), tensor.NewRNG(80))
	tb := core.NewTwoBranch(victim, 81)
	tb.Finalized = true
	dep, err := core.Deploy(tb, tee.RaspberryPi3(), []int{1, 3, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	// Shrink the device until one sample fits but a 64-sample batch cannot.
	device := tee.WithSecureMem(tee.RaspberryPi3(), dep.SecureBytes*4)
	dep, err = core.Deploy(tb, device, []int{1, 3, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(dep, Config{Workers: 1, MaxBatch: 64}); !errors.Is(err, core.ErrSecureMemory) {
		t.Fatalf("oversized batch capacity: err = %v, want ErrSecureMemory", err)
	}
}

// TestServerPoolSecureMemoryIsAggregate: replicas draw from one device-sized
// budget, so a pool that fits per-replica but not collectively must be
// rejected.
func TestServerPoolSecureMemoryIsAggregate(t *testing.T) {
	victim := zoo.BuildVGG(zoo.TinyVGGConfig(4), tensor.NewRNG(90))
	tb := core.NewTwoBranch(victim, 91)
	tb.Finalized = true
	probe, err := core.Deploy(tb, tee.RaspberryPi3(), []int{1, 3, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	// Budget for two single-sample replicas, with headroom but not a third.
	device := tee.WithSecureMem(tee.RaspberryPi3(), probe.SecureBytes*2+probe.SecureBytes/2)
	dep, err := core.Deploy(tb, device, []int{1, 3, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(dep, Config{Workers: 3, MaxBatch: 1}); !errors.Is(err, core.ErrSecureMemory) {
		t.Fatalf("3-replica pool on a 2-replica budget: err = %v, want ErrSecureMemory", err)
	}
	srv, err := New(dep, Config{Workers: 2, MaxBatch: 1})
	if err != nil {
		t.Fatalf("2-replica pool must fit: %v", err)
	}
	srv.Close()
}
