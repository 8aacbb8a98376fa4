package autoscale

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tbnet/internal/core"
	"tbnet/internal/fleet"
	"tbnet/internal/serve"
	"tbnet/internal/tee"
	"tbnet/internal/tensor"
	"tbnet/internal/zoo"
)

// testDeployment builds a deployed tiny finalized two-branch model; the
// controller's behaviour depends on load signals, not learned weights.
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

// pressedFleet builds a single-node paced fleet and parks `hold` requests on
// it: pacing stretches each request's service time, so the requests stay
// outstanding long enough for manual controller ticks to observe them.
func pressedFleet(t *testing.T, hold int) (*fleet.Fleet, func()) {
	t.Helper()
	f, err := fleet.New(testDeployment(t, 1), fleet.Config{
		Nodes:       []fleet.NodeConfig{{Device: tee.RaspberryPi3(), Workers: 1}},
		MaxBatch:    1,
		MaxDelay:    100 * time.Microsecond,
		MaxInFlight: -1,
		// ~1.5ms modeled latency × 100 ≈ 150ms of wall-clock service per
		// request: plenty of time to tick against a stable backlog.
		PaceScale: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	xs := randSamples(hold, 2)
	var wg sync.WaitGroup
	for i := 0; i < hold; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f.Infer(context.Background(), xs[i])
		}(i)
	}
	// Wait until the whole burst is visible as queued or in-service work.
	deadline := time.Now().Add(5 * time.Second)
	for {
		loads := f.NodeLoads(fleet.DefaultModel)
		if len(loads) == 1 && loads[0].QueueDepth+loads[0].InFlight >= hold {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("burst never became visible: %+v", loads)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return f, wg.Wait
}

// TestScaleUpDoublesPerTick: a deep backlog must widen the pool immediately
// but at most ×2 per tick, and never past Max.
func TestScaleUpDoublesPerTick(t *testing.T) {
	// Each resize drains the old generation's in-flight paced request
	// (~150ms), during which the new width keeps serving — hold enough
	// backlog that demand stays above target across all three ticks.
	f, wait := pressedFleet(t, 48)
	defer f.Close()
	c, err := New(f, Config{Min: 1, Max: 6})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	c.tick(now) // 1 → 2
	if got := f.Workers(); got != 2 {
		t.Fatalf("workers after tick 1 = %d, want 2 (doubling bound)", got)
	}
	c.tick(now.Add(time.Millisecond)) // 2 → 4
	if got := f.Workers(); got != 4 {
		t.Fatalf("workers after tick 2 = %d, want 4", got)
	}
	c.tick(now.Add(2 * time.Millisecond)) // 4 → 6 (Max clamp)
	if got := f.Workers(); got != 6 {
		t.Fatalf("workers after tick 3 = %d, want Max 6", got)
	}
	st := c.Stats()
	if st.ScaleUps != 3 || st.ScaleDowns != 0 || st.Refused != 0 {
		t.Fatalf("counters = %+v, want 3 ups only", st)
	}
	evs := c.Events()
	if len(evs) != 3 || evs[0].Action != ScaleUp || evs[0].From != 1 || evs[0].To != 2 {
		t.Fatalf("events = %+v", evs)
	}
	if evs[2].TotalWorkers != 6 {
		t.Fatalf("last event total workers = %d, want 6", evs[2].TotalWorkers)
	}
	wait()
}

// TestScaleDownNeedsHysteresis: an idle fleet narrows only after
// scaleDownAfter consecutive low ticks, at most halving per step, and never
// below Min.
func TestScaleDownNeedsHysteresis(t *testing.T) {
	f, err := fleet.New(testDeployment(t, 5), fleet.Config{
		Nodes:    []fleet.NodeConfig{{Device: tee.RaspberryPi3(), Workers: 8}},
		MaxDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c, err := New(f, Config{Min: 1, Max: 8})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	c.tick(now)
	c.tick(now.Add(time.Millisecond))
	if got := f.Workers(); got != 8 {
		t.Fatalf("workers narrowed after %d low ticks, want hysteresis of 3", 2)
	}
	c.tick(now.Add(2 * time.Millisecond)) // third low tick: 8 → 4
	if got := f.Workers(); got != 4 {
		t.Fatalf("workers after hysteresis = %d, want 4 (halving bound)", got)
	}
	for i := 0; i < 12; i++ {
		c.tick(now.Add(time.Duration(3+i) * time.Millisecond))
	}
	if got := f.Workers(); got != 1 {
		t.Fatalf("workers after sustained idle = %d, want Min 1", got)
	}
	st := c.Stats()
	if st.ScaleDowns < 3 {
		t.Fatalf("scale-downs = %d, want ≥ 3 (8→4→2→1)", st.ScaleDowns)
	}
}

// TestRefusedScaleUpRespectsBudget: on a device whose secure-memory budget
// cannot hold the warm window, the controller must record a refusal, keep
// the old width, and leave the fleet serving — it spends headroom, it never
// forces it.
func TestRefusedScaleUpRespectsBudget(t *testing.T) {
	probe, err := serve.New(testDeployment(t, 8), serve.Config{Workers: 2, MaxBatch: 1, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	pool := probe.Stats().PeakSecureBytes
	probe.Close()
	tight := tee.WithSecureMem(tee.RaspberryPi3(), pool+pool/2)
	f, err := fleet.New(testDeployment(t, 8), fleet.Config{
		Nodes:       []fleet.NodeConfig{{Device: tight, Workers: 2}},
		MaxBatch:    1,
		MaxDelay:    100 * time.Microsecond,
		MaxInFlight: -1,
		PaceScale:   100,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	xs := randSamples(12, 9)
	var wg sync.WaitGroup
	for i := range xs {
		wg.Add(1)
		go func(i int) { defer wg.Done(); f.Infer(context.Background(), xs[i]) }(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		loads := f.NodeLoads(fleet.DefaultModel)
		if loads[0].QueueDepth+loads[0].InFlight >= len(xs) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("burst never became visible")
		}
		time.Sleep(200 * time.Microsecond)
	}
	c, err := New(f, Config{Min: 1, Max: 8})
	if err != nil {
		t.Fatal(err)
	}
	c.tick(time.Now())
	st := c.Stats()
	if st.Refused != 1 || st.ScaleUps != 0 {
		t.Fatalf("counters after budget refusal = ups %d refused %d, want 0/1", st.ScaleUps, st.Refused)
	}
	if got := f.Workers(); got != 2 {
		t.Fatalf("workers after refusal = %d, want 2", got)
	}
	evs := c.Events()
	if len(evs) != 1 || evs[0].Action != Refused || evs[0].From != 2 || evs[0].To != 2 {
		t.Fatalf("events = %+v, want one refusal keeping width 2", evs)
	}
	wg.Wait()
	if _, err := f.Infer(context.Background(), xs[0]); err != nil {
		t.Fatalf("fleet broken after refused scale-up: %v", err)
	}
}

// TestStartStopLifecycle: Start launches the loop, Stop is idempotent and
// safe before/after, and a fleet-bound controller is stopped by Drain.
func TestStartStopLifecycle(t *testing.T) {
	f, err := fleet.New(testDeployment(t, 12), fleet.Config{
		Nodes:    []fleet.NodeConfig{{Device: tee.RaspberryPi3(), Workers: 1}},
		MaxDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(f, Config{Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	f.BindController(c)
	c.Start()
	c.Start() // idempotent
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Ticks == 0 {
		if time.Now().After(deadline) {
			t.Fatal("control loop never ticked")
		}
		time.Sleep(time.Millisecond)
	}
	if !c.Stats().Running {
		t.Fatal("Stats().Running = false while the loop runs")
	}
	// Drain stops the bound controller before tearing nodes down.
	if err := f.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Running {
		t.Fatal("controller still running after fleet drain")
	}
	c.Stop() // idempotent after the fleet already stopped it
}

// TestStopBeforeStart: a controller that never ran must stop cleanly — the
// facade binds before starting, and a fleet Close between the two must not
// hang.
func TestStopBeforeStart(t *testing.T) {
	f, err := fleet.New(testDeployment(t, 14), fleet.Config{
		Nodes:    []fleet.NodeConfig{{Device: tee.RaspberryPi3(), Workers: 1}},
		MaxDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c, err := New(f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { c.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop before Start hung")
	}
}

// TestConfigValidation: the constructor rejects broken knobs.
func TestConfigValidation(t *testing.T) {
	f, err := fleet.New(testDeployment(t, 16), fleet.Config{
		Nodes:    []fleet.NodeConfig{{Device: tee.RaspberryPi3(), Workers: 1}},
		MaxDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, cfg := range []Config{
		{Min: -1},
		{Min: 4, Max: 2},
		{Interval: -time.Second},
	} {
		if _, err := New(f, cfg); !errors.Is(err, ErrConfig) {
			t.Fatalf("New(%+v) err = %v, want ErrConfig", cfg, err)
		}
	}
	if _, err := New(nil, Config{}); !errors.Is(err, ErrConfig) {
		t.Fatalf("nil fleet err = %v, want ErrConfig", err)
	}
}

// TestEventRingBounded: the event ring drops its oldest entries past
// eventBuffer.
func TestEventRingBounded(t *testing.T) {
	f, err := fleet.New(testDeployment(t, 18), fleet.Config{
		Nodes:    []fleet.NodeConfig{{Device: tee.RaspberryPi3(), Workers: 1}},
		MaxDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var logged atomic.Int64
	c, err := New(f, Config{Logger: func(Event) { logged.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	const total = eventBuffer + 6
	c.mu.Lock()
	for i := 0; i < total; i++ {
		c.record(Event{Node: "n", Action: ScaleUp, From: i, To: i + 1})
	}
	c.mu.Unlock()
	evs := c.Events()
	if len(evs) != eventBuffer {
		t.Fatalf("ring holds %d events, want %d", len(evs), eventBuffer)
	}
	if evs[0].From != total-eventBuffer || evs[eventBuffer-1].From != total-1 {
		t.Fatalf("ring kept From %d..%d, want the newest %d", evs[0].From, evs[len(evs)-1].From, eventBuffer)
	}
	if logged.Load() != total {
		t.Fatalf("logger saw %d events, want all %d", logged.Load(), total)
	}
}
