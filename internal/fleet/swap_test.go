package fleet

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tbnet/internal/core"
	"tbnet/internal/serve"
	"tbnet/internal/tee"
	"tbnet/internal/tensor"
)

// groundTruth runs xs through a fresh session of dep's weights sequentially.
func groundTruth(t testing.TB, dep *core.Deployment, xs []*tensor.Tensor) []int {
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

// TestFleetSwapLossFreeUnderFire is the hot-swap acceptance test: ≥16
// goroutines hammer Fleet.Infer across a mixed two-device fleet while
// SwapModel replaces the default model everywhere, and not one request may
// be dropped or errored; after the swap returns, fleet outputs must match
// the new model bit-identically on every input.
func TestFleetSwapLossFreeUnderFire(t *testing.T) {
	depA := testDeployment(t, 1)
	depB := testDeployment(t, 2)
	xs := randSamples(32, 3)
	wantB := groundTruth(t, testDeployment(t, 2), xs)

	sgx, err := tee.ByName("sgx-desktop")
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(depA, Config{
		Nodes: []NodeConfig{
			{Device: tee.RaspberryPi3(), Workers: 2},
			{Device: sgx, Workers: 2},
		},
		Policy:   LeastLoaded(),
		MaxDelay: 200 * time.Microsecond,
		// Admission control off: the acceptance bar is zero shed/errored
		// requests across the swap, so nothing may be refused by design.
		MaxInFlight: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	const hammers = 16
	var stop atomic.Bool
	var served, failed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < hammers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; !stop.Load(); i++ {
				if _, err := f.Infer(context.Background(), xs[i%len(xs)]); err != nil {
					failed.Add(1)
				} else {
					served.Add(1)
				}
			}
		}(g)
	}
	time.Sleep(20 * time.Millisecond)
	if err := f.SwapModel(DefaultModel, depB); err != nil {
		t.Fatalf("fleet swap under fire: %v", err)
	}
	time.Sleep(20 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if fl := failed.Load(); fl != 0 {
		t.Fatalf("%d requests dropped/errored across the swap (served %d)", fl, served.Load())
	}
	if s := served.Load(); s < hammers {
		t.Fatalf("only %d requests served by %d hammers", s, hammers)
	}
	// SwapModel returns after every node's old replicas drained: all
	// subsequent fleet responses carry the new model's weights, whichever
	// device the policy routes to.
	for i, x := range xs {
		got, err := f.Infer(context.Background(), x)
		if err != nil {
			t.Fatalf("post-swap request %d: %v", i, err)
		}
		if got != wantB[i] {
			t.Fatalf("post-swap label[%d] = %d, want new model's %d", i, got, wantB[i])
		}
	}
	st := f.Stats()
	if len(st.Models) != 1 || st.Models[0].Swaps != 2 {
		t.Fatalf("model stats = %+v, want one model with 2 per-node swaps", st.Models)
	}
	if st.Errors != 0 {
		t.Fatalf("fleet recorded %d protocol errors", st.Errors)
	}
}

// TestFleetMultiModel: a fleet hosting two named models routes each request
// to the addressed model's pools on every device and reports per-model
// stats.
func TestFleetMultiModel(t *testing.T) {
	depA := testDeployment(t, 10)
	depB := testDeployment(t, 11)
	xs := randSamples(12, 12)
	wantA := groundTruth(t, testDeployment(t, 10), xs)
	wantB := groundTruth(t, testDeployment(t, 11), xs)

	jet, err := tee.ByName("jetson-tz")
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(depA, Config{
		Nodes: []NodeConfig{
			{Device: tee.RaspberryPi3(), Workers: 1},
			{Device: jet, Workers: 1},
		},
		Models:   []NamedModel{{Name: "candidate", Dep: depB}},
		MaxDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	if got := f.Models(); len(got) != 2 || got[0] != DefaultModel || got[1] != "candidate" {
		t.Fatalf("Models() = %v", got)
	}
	for i, x := range xs {
		a, err := f.Infer(context.Background(), x)
		if err != nil {
			t.Fatalf("default request %d: %v", i, err)
		}
		if a != wantA[i] {
			t.Fatalf("default label[%d] = %d, want %d", i, a, wantA[i])
		}
		b, err := f.InferModel(context.Background(), "candidate", x)
		if err != nil {
			t.Fatalf("candidate request %d: %v", i, err)
		}
		if b != wantB[i] {
			t.Fatalf("candidate label[%d] = %d, want %d", i, b, wantB[i])
		}
	}
	if _, err := f.InferModel(context.Background(), "ghost", xs[0]); !errors.Is(err, serve.ErrUnknownModel) {
		t.Fatalf("unknown model err = %v, want serve.ErrUnknownModel", err)
	}

	st := f.Stats()
	if len(st.Models) != 2 {
		t.Fatalf("Stats().Models has %d entries, want 2", len(st.Models))
	}
	for _, ms := range st.Models {
		if ms.Requests != int64(len(xs)) {
			t.Fatalf("model %q served %d, want %d", ms.Name, ms.Requests, len(xs))
		}
	}
	if st.Requests != int64(2*len(xs)) {
		t.Fatalf("fleet-wide requests = %d, want %d", st.Requests, 2*len(xs))
	}
}

// TestFleetAddModelLive: models can join a serving fleet, get per-node
// probed latencies, and serve immediately.
func TestFleetAddModelLive(t *testing.T) {
	depA := testDeployment(t, 20)
	depB := testDeployment(t, 21)
	xs := randSamples(6, 22)
	wantB := groundTruth(t, testDeployment(t, 21), xs)

	f, err := New(depA, Config{
		Nodes:    []NodeConfig{{Device: tee.RaspberryPi3(), Workers: 1}},
		MaxDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.AddModel("late", depB); err != nil {
		t.Fatal(err)
	}
	if err := f.AddModel("late", depB); !errors.Is(err, serve.ErrModelExists) {
		t.Fatalf("duplicate AddModel err = %v", err)
	}
	for i, x := range xs {
		got, err := f.InferModel(context.Background(), "late", x)
		if err != nil {
			t.Fatalf("late request %d: %v", i, err)
		}
		if got != wantB[i] {
			t.Fatalf("late label[%d] = %d, want %d", i, got, wantB[i])
		}
	}
	f.modelMu.RLock()
	lat := f.nodes[0].lat["late"]
	f.modelMu.RUnlock()
	if lat <= 0 {
		t.Fatalf("added model's probed latency = %g, want > 0", lat)
	}
}

// TestFleetAddModelRollsBackOnPartialFailure: when a later node cannot host
// the model, the earlier nodes detach it again, so the name stays free and
// a retry is possible.
func TestFleetAddModelRollsBackOnPartialFailure(t *testing.T) {
	dep := testDeployment(t, 80)
	// Second node too tight for any pool: AddModel succeeds on node 0, then
	// fails on node 1 and must unwind node 0.
	tiny := tee.WithSecureMem(tee.RaspberryPi3(), 1)
	f := &Fleet{
		cfg:     Config{MaxBatch: 2, MaxDelay: time.Millisecond}.withDefaults(),
		names:   []string{DefaultModel},
		drained: make(chan struct{}),
		start:   time.Now(),
	}
	srv, err := serve.New(dep, serve.Config{Workers: 1, MaxBatch: 2, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ok := &node{name: "ok", device: tee.RaspberryPi3(), srv: srv,
		lat: map[string]float64{DefaultModel: 1}}
	tightNode := &node{name: "tight", device: tiny, srv: srv, // priceOn fails on tiny before srv is touched
		lat: map[string]float64{DefaultModel: 1}}
	f.nodes = []*node{ok, tightNode}
	defer srv.Close()

	if err := f.AddModel("m", testDeployment(t, 81)); err == nil {
		t.Fatal("AddModel succeeded with an unhostable node")
	}
	// The name must be free again: node 0 no longer hosts it...
	if _, err := srv.SampleShape("m"); !errors.Is(err, serve.ErrUnknownModel) {
		t.Fatalf("node 0 still hosts the model after rollback: %v", err)
	}
	if got := f.Models(); len(got) != 1 {
		t.Fatalf("fleet models after failed add = %v", got)
	}
}

// TestFleetSwapUnknownModel: swapping a name nobody hosts reports
// ErrUnknownModel from every node.
func TestFleetSwapUnknownModel(t *testing.T) {
	dep := testDeployment(t, 30)
	f, err := New(dep, Config{
		Nodes:    []NodeConfig{{Device: tee.RaspberryPi3(), Workers: 1}},
		MaxDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.SwapModel("ghost", testDeployment(t, 31)); !errors.Is(err, serve.ErrUnknownModel) {
		t.Fatalf("swap unknown model err = %v, want serve.ErrUnknownModel", err)
	}
}
