package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tbnet/internal/core"
	"tbnet/internal/tee"
	"tbnet/internal/tensor"
	"tbnet/internal/zoo"
)

// testDeploymentShape is testDeployment sized for an explicit sample shape.
func testDeploymentShape(t testing.TB, seed uint64, shape []int) *core.Deployment {
	t.Helper()
	victim := zoo.BuildVGG(zoo.TinyVGGConfig(4), tensor.NewRNG(seed))
	tb := core.NewTwoBranch(victim, seed+1)
	tb.Finalized = true
	dep, err := core.Deploy(tb, tee.RaspberryPi3(), shape)
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

// sequentialLabels runs xs one by one through a fresh session of dep's
// weights, producing the ground-truth labels a served request must match.
func sequentialLabels(t *testing.T, dep *core.Deployment, xs []*tensor.Tensor) []int {
	t.Helper()
	out := make([]int, len(xs))
	for i, x := range xs {
		labels, err := dep.Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = labels[0]
	}
	return out
}

// TestServerSwapUnderFire is the serve-level hot-swap acceptance test: 16
// goroutines hammer Infer while Swap replaces the replica pool, and not one
// request may error; after Swap returns, every response must match the new
// model bit-identically.
func TestServerSwapUnderFire(t *testing.T) {
	depA := testDeployment(t, 1)
	depB := testDeployment(t, 2)
	xs := randSamples(32, 3)
	wantB := sequentialLabels(t, testDeployment(t, 2), xs)

	srv, err := New(depA, Config{Workers: 2, MaxBatch: 4, MaxDelay: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const hammers = 16
	var stop atomic.Bool
	var served, failed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < hammers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; !stop.Load(); i++ {
				if _, err := srv.Infer(context.Background(), xs[i%len(xs)]); err != nil {
					failed.Add(1)
				} else {
					served.Add(1)
				}
			}
		}(g)
	}
	time.Sleep(20 * time.Millisecond)
	if err := srv.SwapModel(DefaultModel, depB); err != nil {
		t.Fatalf("swap under fire: %v", err)
	}
	time.Sleep(20 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if f := failed.Load(); f != 0 {
		t.Fatalf("%d requests failed across the swap (served %d)", f, served.Load())
	}
	if s := served.Load(); s < hammers {
		t.Fatalf("only %d requests served by %d hammers", s, hammers)
	}
	// Swap returned after the old generation fully drained, so every label
	// from here on must be the new model's.
	for i, x := range xs {
		got, err := srv.Infer(context.Background(), x)
		if err != nil {
			t.Fatalf("post-swap request %d: %v", i, err)
		}
		if got != wantB[i] {
			t.Fatalf("post-swap label[%d] = %d, want new model's %d", i, got, wantB[i])
		}
	}
	if st := srv.Stats(); st.Swaps != 1 {
		t.Fatalf("Stats().Swaps = %d, want 1", st.Swaps)
	}
}

// TestSwapReleasesOldReservation: after a swap drains, the shared budget
// must hold exactly one pool again — the old generation's secure memory is
// returned, so repeated swaps cannot leak the modeled device full.
func TestSwapReleasesOldReservation(t *testing.T) {
	srv, err := New(testDeployment(t, 5), Config{Workers: 2, MaxBatch: 2, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	before := srv.budget.Used()
	for i := 0; i < 3; i++ {
		if err := srv.SwapModel(DefaultModel, testDeployment(t, uint64(10+i))); err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
	}
	if after := srv.budget.Used(); after != before {
		t.Fatalf("budget used %d after 3 swaps, want %d (old generations not freed)", after, before)
	}
	if peak := srv.budget.Peak(); peak <= before {
		t.Fatalf("peak %d ≤ steady %d: warm window never held both generations", peak, before)
	}
}

// TestSwapWithoutHeadroomFailsCleanly: on a device sized for exactly one
// pool, the warm-then-drain swap must fail with ErrSecureMemory and leave
// the old pool serving.
func TestSwapWithoutHeadroomFailsCleanly(t *testing.T) {
	// Measure one pool's reservation, then rebuild on a device capped just
	// above it so a second (warm) generation cannot fit.
	probe, err := New(testDeployment(t, 20), Config{Workers: 2, MaxBatch: 2, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	one := probe.budget.Used()
	probe.Close()

	tight := tee.WithSecureMem(tee.RaspberryPi3(), one+one/2)
	dep := testDeploymentOn(t, 20, tight)
	srv, err := New(dep, Config{Workers: 2, MaxBatch: 2, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	err = srv.SwapModel(DefaultModel, testDeployment(t, 21))
	if err == nil {
		t.Fatal("swap succeeded on a device without warm-window headroom")
	}
	if !errors.Is(err, core.ErrSecureMemory) {
		t.Fatalf("swap error = %v, want ErrSecureMemory", err)
	}
	// The old pool must still serve.
	if _, err := srv.Infer(context.Background(), randSamples(1, 22)[0]); err != nil {
		t.Fatalf("old pool broken after failed swap: %v", err)
	}
	if st := srv.Stats(); st.Swaps != 0 {
		t.Fatalf("failed swap counted: Swaps = %d", st.Swaps)
	}
}

// TestSwapShapeMismatchRejected: a deployment with a different sample
// geometry cannot be swapped under a pool serving another shape.
func TestSwapShapeMismatchRejected(t *testing.T) {
	srv, err := New(testDeployment(t, 30), Config{Workers: 1, MaxBatch: 2, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Build a deployment sized for a different spatial geometry.
	other := testDeploymentShape(t, 31, []int{1, 3, 8, 8})
	if err := srv.SwapModel(DefaultModel, other); !errors.Is(err, ErrConfig) {
		t.Fatalf("swap with mismatched shape: err = %v, want ErrConfig", err)
	}
}

// TestSwapAfterCloseFails: a swap must not install workers on a retired
// pool.
func TestSwapAfterCloseFails(t *testing.T) {
	srv, err := New(testDeployment(t, 40), Config{Workers: 1, MaxBatch: 2, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := srv.SwapModel(DefaultModel, testDeployment(t, 41)); !errors.Is(err, ErrClosed) {
		t.Fatalf("swap after close: err = %v, want ErrClosed", err)
	}
}

// TestServerMultiModel: two hosted models answer with their own weights,
// report their own stats, and unknown names are rejected.
func TestServerMultiModel(t *testing.T) {
	depA := testDeployment(t, 50)
	depB := testDeployment(t, 51)
	xs := randSamples(16, 52)
	wantA := sequentialLabels(t, testDeployment(t, 50), xs)
	wantB := sequentialLabels(t, testDeployment(t, 51), xs)

	srv, err := New(depA, Config{Workers: 2, MaxBatch: 4, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.AddModel("b", depB); err != nil {
		t.Fatal(err)
	}
	if err := srv.AddModel("b", depB); !errors.Is(err, ErrModelExists) {
		t.Fatalf("duplicate AddModel: err = %v, want ErrModelExists", err)
	}
	if got := srv.names; len(got) != 2 || got[0] != DefaultModel || got[1] != "b" {
		t.Fatalf("Models() = %v", got)
	}

	for i, x := range xs {
		a, err := srv.Infer(context.Background(), x)
		if err != nil {
			t.Fatalf("default model request %d: %v", i, err)
		}
		if a != wantA[i] {
			t.Fatalf("default label[%d] = %d, want %d", i, a, wantA[i])
		}
		b, err := srv.InferModel(context.Background(), "b", x)
		if err != nil {
			t.Fatalf("model b request %d: %v", i, err)
		}
		if b != wantB[i] {
			t.Fatalf("b label[%d] = %d, want %d", i, b, wantB[i])
		}
	}
	if _, err := srv.InferModel(context.Background(), "nope", xs[0]); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("unknown model: err = %v, want ErrUnknownModel", err)
	}

	agg := srv.Stats()
	if agg.Requests != int64(2*len(xs)) || agg.Models != 2 || len(agg.PerModel) != 2 {
		t.Fatalf("aggregate = %d requests over %d models", agg.Requests, agg.Models)
	}
	stA, stB := agg.PerModel[0], agg.PerModel[1]
	if stA.Model != DefaultModel || stB.Model != "b" {
		t.Fatalf("per-model order = %q, %q", stA.Model, stB.Model)
	}
	if stA.Requests != int64(len(xs)) || stB.Requests != int64(len(xs)) {
		t.Fatalf("per-model requests = %d/%d, want %d each", stA.Requests, stB.Requests, len(xs))
	}
}

// TestRemoveModelFreesBudgetAndRejectsTraffic: a removed model's pool
// drains, its reservation returns to the budget, and later requests fail
// with ErrUnknownModel; the default model cannot be removed.
func TestRemoveModelFreesBudgetAndRejectsTraffic(t *testing.T) {
	srv, err := New(testDeployment(t, 70), Config{Workers: 1, MaxBatch: 2, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	before := srv.budget.Used()
	if err := srv.AddModel("tmp", testDeployment(t, 71)); err != nil {
		t.Fatal(err)
	}
	if srv.budget.Used() <= before {
		t.Fatal("AddModel reserved nothing")
	}
	x := randSamples(1, 72)[0]
	if _, err := srv.InferModel(context.Background(), "tmp", x); err != nil {
		t.Fatal(err)
	}
	if err := srv.RemoveModel("tmp"); err != nil {
		t.Fatal(err)
	}
	if got := srv.budget.Used(); got != before {
		t.Fatalf("budget %d after removal, want %d", got, before)
	}
	if _, err := srv.InferModel(context.Background(), "tmp", x); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("post-removal request err = %v, want ErrUnknownModel", err)
	}
	if err := srv.RemoveModel("tmp"); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("double removal err = %v, want ErrUnknownModel", err)
	}
	if err := srv.RemoveModel(DefaultModel); !errors.Is(err, ErrConfig) {
		t.Fatalf("default removal err = %v, want ErrConfig", err)
	}
}

// TestMultiModelSharesDeviceBudget: hosting a second model must draw from
// the same accountant, and an AddModel that cannot fit must fail with
// ErrSecureMemory leaving the first model serving.
func TestMultiModelSharesDeviceBudget(t *testing.T) {
	probe, err := New(testDeployment(t, 60), Config{Workers: 2, MaxBatch: 2, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	one := probe.budget.Used()
	probe.Close()

	tight := tee.WithSecureMem(tee.RaspberryPi3(), one+one/2)
	srv, err := New(testDeploymentOn(t, 60, tight), Config{Workers: 2, MaxBatch: 2, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	err = srv.AddModel("b", testDeployment(t, 61))
	if !errors.Is(err, core.ErrSecureMemory) {
		t.Fatalf("AddModel beyond budget: err = %v, want ErrSecureMemory", err)
	}
	if _, err := srv.Infer(context.Background(), randSamples(1, 62)[0]); err != nil {
		t.Fatalf("default model broken after failed AddModel: %v", err)
	}
}

// mallocsOf counts the heap allocations of one call of f, on one P as
// testing.AllocsPerRun measures, but without its unmeasured first call: a
// first call that sizes a buffer is what these tests look for.
func mallocsOf(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestSwapWarmsEveryBatchSize: a swapped-in generation serves its first
// batch of every size up to MaxBatch without allocating. Its warm-up runs
// one sample per replica and then reserves MaxBatch, so no batch size is
// left for the serving path to size.
func TestSwapWarmsEveryBatchSize(t *testing.T) {
	const maxBatch = 4
	srv, err := New(testDeployment(t, 5), Config{Workers: 2, MaxBatch: maxBatch, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.SwapModel(DefaultModel, testDeployment(t, 6)); err != nil {
		t.Fatal(err)
	}
	p, err := srv.lookup(DefaultModel)
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]int, maxBatch)
	for i, rep := range p.gen.Load().reps {
		for _, n := range []int{1, 3, maxBatch} {
			x := tensor.New(n, 3, 16, 16)
			var inferErr error
			if m := mallocsOf(func() { _, inferErr = rep.InferInto(x, labels) }); m != 0 {
				t.Errorf("replica %d: first batch of %d after the swap allocates %d times", i, n, m)
			}
			if inferErr != nil {
				t.Fatal(inferErr)
			}
		}
	}
}

// TestWarmUpRunsOneSamplePerReplica counts what a warm-up runs by the
// replicas' meters: after AddModel and after SwapModel every replica has
// metered exactly one single-sample inference, and New's default pool,
// which does not warm, none.
func TestWarmUpRunsOneSamplePerReplica(t *testing.T) {
	srv, err := New(testDeployment(t, 7), Config{Workers: 2, MaxBatch: 4, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	metered := func(name string) []float64 {
		p, err := srv.lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		var out []float64
		for _, rep := range p.gen.Load().reps {
			one, err := rep.ModeledLatency(1)
			if err != nil {
				t.Fatal(err)
			}
			if got := rep.Device.Latency(rep.Enclave.Meter()); got != 0 && got != one {
				t.Fatalf("%s: a replica metered %v s, one sample is %v s", name, got, one)
			}
			out = append(out, rep.Device.Latency(rep.Enclave.Meter()))
		}
		return out
	}
	for _, lat := range metered(DefaultModel) {
		if lat != 0 {
			t.Fatalf("New's default pool ran %v s of inference before traffic", lat)
		}
	}
	if err := srv.AddModel("b", testDeployment(t, 8)); err != nil {
		t.Fatal(err)
	}
	if err := srv.SwapModel(DefaultModel, testDeployment(t, 9)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"b", DefaultModel} {
		for i, lat := range metered(name) {
			if lat == 0 {
				t.Fatalf("%s: replica %d ran no warm-up inference", name, i)
			}
		}
	}
}
