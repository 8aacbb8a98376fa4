package fleet

import (
	"context"
	"errors"
	"strings"
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

// TestFleetAttachDetachLive: a device attached to a serving fleet hosts
// every current model (proved by detaching the founding node and checking
// bit-exact answers from the newcomer), detach refuses unknown names and the
// last node, and re-attachment of a device type gets a unique identity.
func TestFleetAttachDetachLive(t *testing.T) {
	depA := testDeployment(t, 50)
	depB := testDeployment(t, 51)
	xs := randSamples(8, 52)
	wantA := groundTruth(t, testDeployment(t, 50), xs)
	wantB := groundTruth(t, testDeployment(t, 51), xs)

	f, err := New(depA, Config{
		Nodes:    []NodeConfig{{Device: tee.RaspberryPi3(), Workers: 1}},
		Models:   []NamedModel{{Name: "candidate", Dep: depB}},
		MaxDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	sgx, err := tee.ByName("sgx-desktop")
	if err != nil {
		t.Fatal(err)
	}
	name, err := f.AttachDevice(sgx, 2)
	if err != nil {
		t.Fatalf("AttachDevice: %v", err)
	}
	if name != "sgx-desktop" {
		t.Fatalf("attached node name = %q", name)
	}
	if st := f.Stats(); st.Devices != 2 || st.Workers != 3 {
		t.Fatalf("devices/workers = %d/%d after attach, want 2/3", st.Devices, st.Workers)
	}

	// Detach the founding node: everything now rides on the newcomer, so
	// correct answers for BOTH models prove the attach replicated the full
	// hosted set.
	if err := f.DetachDevice("rpi3"); err != nil {
		t.Fatalf("DetachDevice: %v", err)
	}
	for i, x := range xs {
		a, err := f.Infer(context.Background(), x)
		if err != nil {
			t.Fatalf("default request %d on attached node: %v", i, err)
		}
		if a != wantA[i] {
			t.Fatalf("default label[%d] = %d, want %d", i, a, wantA[i])
		}
		b, err := f.InferModel(context.Background(), "candidate", x)
		if err != nil {
			t.Fatalf("candidate request %d on attached node: %v", i, err)
		}
		if b != wantB[i] {
			t.Fatalf("candidate label[%d] = %d, want %d", i, b, wantB[i])
		}
	}

	if err := f.DetachDevice("sgx-desktop"); !errors.Is(err, ErrConfig) {
		t.Fatalf("detach last node err = %v, want ErrConfig", err)
	}
	if err := f.DetachDevice("ghost"); !errors.Is(err, ErrConfig) {
		t.Fatalf("detach unknown node err = %v, want ErrConfig", err)
	}
	second, err := f.AttachDevice(sgx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(second, "sgx-desktop#") {
		t.Fatalf("second node of a type = %q, want a #-suffixed identity", second)
	}
	if _, err := f.AttachDevice(nil, 1); !errors.Is(err, ErrConfig) {
		t.Fatalf("nil device err = %v, want ErrConfig", err)
	}
	if _, err := f.AttachDevice(sgx, 0); !errors.Is(err, ErrConfig) {
		t.Fatalf("zero-worker attach err = %v, want ErrConfig", err)
	}
}

// TestFleetDetachUnderFire: detaching a node while 8 goroutines hammer the
// fleet must not drop a request — routing unpublishes first, requests
// already routed finish on the live server, then it closes.
func TestFleetDetachUnderFire(t *testing.T) {
	f, err := New(testDeployment(t, 55), Config{
		Nodes:       mixedNodes(t, 1),
		Policy:      RoundRobin(),
		MaxDelay:    200 * time.Microsecond,
		MaxInFlight: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	xs := randSamples(16, 56)

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
	if err := f.DetachDevice("sgx-desktop"); err != nil {
		t.Fatalf("detach under fire: %v", err)
	}
	time.Sleep(5 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d requests dropped across the detach", n)
	}
	if st := f.Stats(); st.Devices != 2 {
		t.Fatalf("devices = %d after detach, want 2", st.Devices)
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

// TestFleetReattachKeepsNodeNamesUnique: a node's identity is the smallest
// "name" or "name#k" no live node holds, so detaching the first of two rpi3
// nodes and attaching another rpi3 gives it back "rpi3" — never a second
// "rpi3#2" that DetachDevice, the EWMA cells and /metrics could not tell
// apart from the first.
func TestFleetReattachKeepsNodeNamesUnique(t *testing.T) {
	f, err := New(testDeployment(t, 58), Config{Nodes: []NodeConfig{
		{Device: tee.RaspberryPi3(), Workers: 1},
		{Device: tee.RaspberryPi3(), Workers: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.DetachDevice("rpi3"); err != nil {
		t.Fatal(err)
	}
	name, err := f.AttachDevice(tee.RaspberryPi3(), 1)
	if err != nil {
		t.Fatal(err)
	}
	third, err := f.AttachDevice(tee.RaspberryPi3(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ds := range f.Stats().PerDevice {
		names = append(names, ds.Name)
	}
	if name != "rpi3" || third != "rpi3#3" || strings.Join(names, " ") != "rpi3#2 rpi3 rpi3#3" {
		t.Fatalf("attached %q then %q; per-device names %v, want rpi3, rpi3#3 and [rpi3#2 rpi3 rpi3#3]",
			name, third, names)
	}
}
