package fleet

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"tbnet/internal/core"
	"tbnet/internal/serve"
	"tbnet/internal/tee"
	"tbnet/internal/tensor"
	"tbnet/internal/zoo"
)

// testDeployment builds a deployed tiny finalized two-branch model without
// the training pipeline: fleet behaviour depends on routing and the staged
// protocol, not on learned weights.
func testDeployment(t testing.TB, seed uint64) *core.Deployment {
	t.Helper()
	victim := zoo.BuildVGG(zoo.TinyVGGConfig(4), tensor.NewRNG(seed))
	tb := core.NewTwoBranch(victim, seed+1)
	tb.Finalized = true
	dep, err := core.Deploy(tb, tee.RaspberryPi3(), []int{1, 3, 16, 16})
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

// inferAll routes every sample as its own concurrent request, the way the
// HTTP batch endpoint fans a batch out, and returns the labels in order.
func inferAll(t *testing.T, f *Fleet, xs []*tensor.Tensor) []int {
	labels, errs := make([]int, len(xs)), make([]error, len(xs))
	var wg sync.WaitGroup
	for i := range xs {
		wg.Add(1)
		go func(i int) { defer wg.Done(); labels[i], errs[i] = f.Infer(context.Background(), xs[i]) }(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	return labels
}

// mixedNodes is the paper-flavoured heterogeneous fleet: an edge board, a
// desktop enclave, and a heterogeneous SoC.
func mixedNodes(t testing.TB, workers int) []NodeConfig {
	t.Helper()
	var nodes []NodeConfig
	for _, name := range []string{"rpi3", "sgx-desktop", "jetson-tz"} {
		dev, err := tee.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, NodeConfig{Device: dev, Workers: workers})
	}
	return nodes
}

// TestFleetMatchesSequential: routing across heterogeneous devices must not
// change results — every label agrees with sequential single-sample
// inference on the template.
func TestFleetMatchesSequential(t *testing.T) {
	dep := testDeployment(t, 1)
	const n = 18
	xs := randSamples(n, 2)
	want := make([]int, n)
	for i, x := range xs {
		labels, err := dep.Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = labels[0]
	}
	for _, policy := range []Policy{RoundRobin(), LeastLoaded(), CostAware()} {
		f, err := New(dep, Config{Nodes: mixedNodes(t, 1), Policy: policy,
			MaxDelay: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		got := inferAll(t, f, xs)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: sample %d routed label %d != sequential %d",
					policy.Name(), i, got[i], want[i])
			}
		}
		st := f.Stats()
		if st.Requests != n {
			t.Fatalf("%s: stats requests = %d, want %d", policy.Name(), st.Requests, n)
		}
		if st.RoutingDecisions != n {
			t.Fatalf("%s: routing decisions = %d, want %d", policy.Name(), st.RoutingDecisions, n)
		}
		if st.HostNsPerOp <= 0 {
			t.Fatalf("%s: HostNsPerOp = %v, want > 0 (real ns/op must aggregate)", policy.Name(), st.HostNsPerOp)
		}
		f.Close()
	}
}

// TestFleetCloseUnderFire is the -race regression the fleet must hold: 32
// goroutines hammer Infer while Close runs mid-stream. No deadlock, no
// panic; enqueuers resolve with a label, ErrClosed, or ErrOverloaded.
func TestFleetCloseUnderFire(t *testing.T) {
	dep := testDeployment(t, 10)
	f, err := New(dep, Config{
		Nodes:       mixedNodes(t, 1),
		Policy:      LeastLoaded(),
		MaxInFlight: 8, // small cap so shedding is exercised too
		MaxDelay:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	xs := randSamples(8, 11)
	const clients = 32
	var wg sync.WaitGroup
	bad := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_, err := f.Infer(context.Background(), xs[(c+i)%len(xs)])
				switch {
				case err == nil, errors.Is(err, ErrOverloaded):
					// keep hammering
				case errors.Is(err, serve.ErrClosed):
					return
				default:
					bad <- err
					return
				}
			}
		}(c)
	}
	time.Sleep(5 * time.Millisecond) // let the fire reach the queues
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(bad)
	for err := range bad {
		t.Errorf("unexpected error under close: %v", err)
	}
	if _, err := f.Infer(context.Background(), xs[0]); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("post-close Infer err = %v, want ErrClosed", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestFleetDeadlineSheds: a request that cannot be answered within the fleet
// deadline is shed with ErrOverloaded instead of queueing past it.
func TestFleetDeadlineSheds(t *testing.T) {
	dep := testDeployment(t, 20)
	f, err := New(dep, Config{
		Nodes:    []NodeConfig{{Device: tee.RaspberryPi3(), Workers: 1}},
		Deadline: time.Millisecond,
		// An incomplete batch waits far past the deadline before flushing, so
		// a lone request deterministically times out in the queue.
		MaxBatch: 8,
		MaxDelay: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	x := randSamples(1, 21)[0]
	if _, err := f.Infer(context.Background(), x); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("deadline miss err = %v, want ErrOverloaded", err)
	}
	if st := f.Stats(); st.Shed < 1 {
		t.Fatalf("stats shed = %d, want ≥ 1", st.Shed)
	}
	// A caller's own expired context is the caller's problem, not shedding.
	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	if _, err := f.Infer(ctx, x); !errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrOverloaded) {
		t.Fatalf("caller-deadline err = %v, want bare context.DeadlineExceeded", err)
	}
	// Shed load is dropped at batch formation, not executed behind the
	// caller's back: after the drain, no request was ever served.
	f.Close()
	if st := f.Stats(); st.Requests != 0 {
		t.Fatalf("shed requests were executed anyway: requests = %d, want 0", st.Requests)
	}
}

// TestFleetMaxInFlightSheds: admission beyond the in-flight cap fails fast
// with ErrOverloaded.
func TestFleetMaxInFlightSheds(t *testing.T) {
	dep := testDeployment(t, 30)
	f, err := New(dep, Config{
		Nodes:       []NodeConfig{{Device: tee.RaspberryPi3(), Workers: 1}},
		MaxInFlight: 2,
		MaxDelay:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Saturate the cap from the test side: the counter is the admission gate.
	f.inflight.Add(2)
	x := randSamples(1, 31)[0]
	if _, err := f.Infer(context.Background(), x); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-cap Infer err = %v, want ErrOverloaded", err)
	}
	f.inflight.Add(-2)
	if _, err := f.Infer(context.Background(), x); err != nil {
		t.Fatalf("under-cap Infer err = %v, want nil", err)
	}
	if st := f.Stats(); st.Shed != 1 {
		t.Fatalf("stats shed = %d, want 1", st.Shed)
	}
}

// TestFleetUnknownModelIsNotRouted: a request for a model the fleet does not
// host fails with ErrUnknownModel before the policy picks a node, so no
// routing decision, per-node routed count or shed count moves.
func TestFleetUnknownModelIsNotRouted(t *testing.T) {
	dep := testDeployment(t, 40)
	f, err := New(dep, Config{Nodes: mixedNodes(t, 1), MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.InferModel(context.Background(), "nope", randSamples(1, 41)[0]); !errors.Is(err, serve.ErrUnknownModel) {
		t.Fatalf("unknown model: err = %v, want ErrUnknownModel", err)
	}
	st := f.Stats()
	for _, d := range st.PerDevice {
		if d.Routed != 0 || d.Shed != 0 || st.RoutingDecisions != 0 || st.Shed != 0 {
			t.Fatalf("%s: routed %d shed %d (fleet: routing %d shed %d), want all 0",
				d.Name, d.Routed, d.Shed, st.RoutingDecisions, st.Shed)
		}
	}
}

func TestFleetConfigValidation(t *testing.T) {
	dep := testDeployment(t, 50)
	cases := []Config{
		{}, // no nodes
		{Nodes: []NodeConfig{{Device: nil}}},
		{Nodes: []NodeConfig{{Device: tee.RaspberryPi3(), Workers: -1}}},
		{Nodes: []NodeConfig{{Device: tee.RaspberryPi3()}}, Deadline: -time.Second},
		{Nodes: []NodeConfig{{Device: tee.RaspberryPi3()}}, MaxBatch: -1},
		{Nodes: []NodeConfig{{Device: tee.RaspberryPi3()}}, MaxDelay: -time.Second},
	}
	for i, cfg := range cases {
		if _, err := New(dep, cfg); !errors.Is(err, ErrConfig) {
			t.Fatalf("case %d: err = %v, want ErrConfig", i, err)
		}
	}
	if _, err := New(nil, Config{Nodes: mixedNodes(t, 1)}); !errors.Is(err, ErrConfig) {
		t.Fatalf("nil deployment: err = %v, want ErrConfig", err)
	}
}

// TestFleetDuplicateDevicesGetDistinctNames: attaching two boards of the same
// type keeps their stats attributable, and names stay unique, in construction
// order, when boards of one type are interleaved with another.
func TestFleetDuplicateDevicesGetDistinctNames(t *testing.T) {
	dep := testDeployment(t, 60)
	f, err := New(dep, Config{Nodes: []NodeConfig{
		{Device: tee.RaspberryPi3(), Workers: 1},
		{Device: tee.RaspberryPi3(), Workers: 1},
	}, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st := f.Stats()
	if len(st.PerDevice) != 2 || st.PerDevice[0].Name != "rpi3" || st.PerDevice[1].Name != "rpi3#2" {
		t.Fatalf("per-device names = %+v, want rpi3 + rpi3#2", st.PerDevice)
	}

	sgx, err := tee.ByName("sgx-desktop")
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := New(dep, Config{Nodes: []NodeConfig{
		{Device: tee.RaspberryPi3(), Workers: 1},
		{Device: sgx, Workers: 1},
		{Device: tee.RaspberryPi3(), Workers: 1},
		{Device: tee.RaspberryPi3(), Workers: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer mixed.Close()
	want := []string{"rpi3", "sgx-desktop", "rpi3#2", "rpi3#3"}
	if got := deviceNames(mixed.Stats()); !slices.Equal(got, want) {
		t.Fatalf("interleaved per-device names = %v, want %v", got, want)
	}
}

// TestFleetStatsAggregate: the fleet snapshot is consistent — requests and
// routing decisions add up across nodes, percentiles are ordered, and the
// secure footprint sums the pools.
func TestFleetStatsAggregate(t *testing.T) {
	dep := testDeployment(t, 70)
	f, err := New(dep, Config{Nodes: mixedNodes(t, 1), Policy: RoundRobin(),
		MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const n = 24
	inferAll(t, f, randSamples(n, 71))
	st := f.Stats()
	if st.Policy != "round-robin" || st.Devices != 3 {
		t.Fatalf("identity wrong: %+v", st)
	}
	if st.Requests != n || st.Errors != 0 || st.Shed != 0 {
		t.Fatalf("counters wrong: requests %d errors %d shed %d", st.Requests, st.Errors, st.Shed)
	}
	var routed int64
	for _, d := range st.PerDevice {
		routed += d.Routed
		if d.Serve.Device == "" || d.SampleLatencyMicros <= 0 {
			t.Fatalf("device stats incomplete: %+v", d)
		}
	}
	if routed != n || st.RoutingDecisions != n {
		t.Fatalf("routing decisions %d / per-device sum %d, want %d", st.RoutingDecisions, routed, n)
	}
	if !(st.P50Micros > 0 && st.P50Micros <= st.P95Micros && st.P95Micros <= st.P99Micros) {
		t.Fatalf("percentiles inconsistent: p50 %g p95 %g p99 %g", st.P50Micros, st.P95Micros, st.P99Micros)
	}
	if st.ModeledThroughput <= 0 || st.PeakSecureBytes <= 0 {
		t.Fatalf("aggregates wrong: %+v", st)
	}
}

// TestPriceOnRunsNoInference: a node learns a model's modeled latency from
// the plan. priceOn's template has metered nothing, its figure is what one
// single-sample run would meter (core's TestModeledLatencyMatchesMeter), and
// the source deployment's meter is untouched.
func TestPriceOnRunsNoInference(t *testing.T) {
	dep := testDeployment(t, 3)
	for _, dev := range tee.Devices() {
		template, lat, err := priceOn(dep, tee.Unbounded(dev))
		if err != nil {
			t.Fatal(err)
		}
		if got := template.Device.Latency(template.Enclave.Meter()); got != 0 {
			t.Fatalf("%s: the template metered %v s of inference", dev.Name(), got)
		}
		if want, _ := template.ModeledLatency(1); lat != want || lat <= 0 {
			t.Fatalf("%s: priced %v s, the plan says %v s", dev.Name(), lat, want)
		}
	}
	if got := dep.Device.Latency(dep.Enclave.Meter()); got != 0 {
		t.Fatalf("the source deployment metered %v s", got)
	}
}
