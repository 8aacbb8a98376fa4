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
)

// TestFleetResizeNodeUnderFire: resizing one node's pool while 8 goroutines
// hammer the fleet must drop nothing, and the fleet must report the new
// width everywhere (Workers, Stats, per-device).
func TestFleetResizeNodeUnderFire(t *testing.T) {
	f, err := New(testDeployment(t, 40), Config{
		Nodes:    []NodeConfig{{Device: tee.RaspberryPi3(), Workers: 2}},
		MaxDelay: 200 * time.Microsecond,
		// Zero-drop bar: nothing may be refused by admission either.
		MaxInFlight: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	xs := randSamples(16, 41)

	var stop atomic.Bool
	var failed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; !stop.Load(); i++ {
				if _, err := f.Infer(context.Background(), xs[i%len(xs)]); err != nil {
					failed.Add(1)
				}
			}
		}(g)
	}
	time.Sleep(5 * time.Millisecond)
	if err := f.ResizeNode("rpi3", 5); err != nil {
		t.Fatalf("scale-up under fire: %v", err)
	}
	if got := f.Workers(); got != 5 {
		t.Fatalf("Workers() = %d after ResizeNode(5)", got)
	}
	time.Sleep(5 * time.Millisecond)
	if err := f.ResizeNode("rpi3", 1); err != nil {
		t.Fatalf("scale-down under fire: %v", err)
	}
	time.Sleep(5 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d requests failed across node resizes", n)
	}
	st := f.Stats()
	if st.Workers != 1 || len(st.PerDevice) != 1 || st.PerDevice[0].Workers != 1 {
		t.Fatalf("stats workers = %d / per-device %+v, want 1", st.Workers, st.PerDevice)
	}
	if err := f.ResizeNode("rpi3", 0); !errors.Is(err, ErrConfig) {
		t.Fatalf("ResizeNode(0) err = %v, want ErrConfig", err)
	}
	if err := f.ResizeNode("ghost", 2); !errors.Is(err, ErrConfig) {
		t.Fatalf("unknown node err = %v, want ErrConfig", err)
	}
}

// TestFleetResizeRefusedWithoutHeadroom: a fleet node on a device whose
// secure-memory budget holds the current pool but not current+target must
// refuse the scale-up with ErrSecureMemory and keep serving at the old
// width — the autoscaler's budget-respect contract.
func TestFleetResizeRefusedWithoutHeadroom(t *testing.T) {
	// Measure one 2-worker pool's secure footprint with a throwaway server.
	probe, err := serve.New(testDeployment(t, 45), serve.Config{Workers: 2, MaxBatch: 2, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	pool := probe.Stats().PeakSecureBytes
	probe.Close()

	tight := tee.WithSecureMem(tee.RaspberryPi3(), pool+pool/2)
	f, err := New(testDeployment(t, 45), Config{
		Nodes:    []NodeConfig{{Device: tight, Workers: 2}},
		MaxBatch: 2,
		MaxDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	name := f.Stats().PerDevice[0].Name
	// 2→4 needs old+new = 3 pools of headroom against a 1.5-pool budget.
	if err := f.ResizeNode(name, 4); !errors.Is(err, core.ErrSecureMemory) {
		t.Fatalf("over-budget resize err = %v, want ErrSecureMemory", err)
	}
	if got := f.Workers(); got != 2 {
		t.Fatalf("Workers() = %d after refused resize, want 2", got)
	}
	if _, err := f.Infer(context.Background(), randSamples(1, 46)[0]); err != nil {
		t.Fatalf("old width broken after refused resize: %v", err)
	}
}

// TestFleetWorkerSecondsLedger: the worker-seconds clock integrates the
// provisioned width piecewise-exactly across resizes and freezes at Close.
func TestFleetWorkerSecondsLedger(t *testing.T) {
	f, err := New(testDeployment(t, 60), Config{
		Nodes:    []NodeConfig{{Device: tee.RaspberryPi3(), Workers: 2}},
		MaxDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if err := f.ResizeNode("rpi3", 4); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	// ≥30ms at width 2 plus ≥30ms at width 4: at least 0.18 worker-seconds
	// (sleeps never undershoot; resize time only adds).
	if ws := f.WorkerSeconds(); ws < 0.17 {
		t.Fatalf("worker-seconds = %v, want ≥ 0.18 (2×30ms + 4×30ms)", ws)
	}
	st := f.Stats()
	if st.Workers != 4 {
		t.Fatalf("Stats().Workers = %d, want 4", st.Workers)
	}
	if st.WorkerSeconds <= 0 || st.WallSeconds <= 0 {
		t.Fatalf("stats ledger = %v ws / %v wall, want positive", st.WorkerSeconds, st.WallSeconds)
	}
	f.Close()
	frozen := f.WorkerSeconds()
	time.Sleep(10 * time.Millisecond)
	if got := f.WorkerSeconds(); got != frozen {
		t.Fatalf("ledger moved after Close: %v → %v", frozen, got)
	}
}

// TestFleetControllerBinding: a bound Stopper is discoverable and is stopped
// exactly once across Drain and Close.
func TestFleetControllerBinding(t *testing.T) {
	f, err := New(testDeployment(t, 65), Config{
		Nodes:    []NodeConfig{{Device: tee.RaspberryPi3(), Workers: 1}},
		MaxDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Controller() != nil {
		t.Fatal("fresh fleet reports a controller")
	}
	s := &countingStopper{}
	f.BindController(s)
	if f.Controller() != Stopper(s) {
		t.Fatal("Controller() does not return the bound stopper")
	}
	if err := f.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := s.stops.Load(); got < 1 {
		t.Fatalf("controller stopped %d times across drain+close, want ≥ 1", got)
	}
}

type countingStopper struct{ stops atomic.Int64 }

func (s *countingStopper) Stop() { s.stops.Add(1) }
