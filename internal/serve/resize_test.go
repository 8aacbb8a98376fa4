package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tbnet/internal/core"
	"tbnet/internal/tee"
)

// TestResizeUnderFire: growing and shrinking the pool while 8 goroutines
// hammer Infer must not fail a single request, and the server must report
// the new width once Resize returns.
func TestResizeUnderFire(t *testing.T) {
	srv, err := New(testDeployment(t, 80), Config{Workers: 2, MaxBatch: 4, MaxDelay: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	xs := randSamples(16, 81)

	var stop atomic.Bool
	var failed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; !stop.Load(); i++ {
				if _, err := srv.Infer(context.Background(), xs[i%len(xs)]); err != nil {
					failed.Add(1)
				}
			}
		}(g)
	}
	time.Sleep(5 * time.Millisecond)
	if err := srv.Resize(5); err != nil {
		t.Fatalf("scale-up under fire: %v", err)
	}
	if got := srv.Workers(); got != 5 {
		t.Fatalf("Workers() = %d after Resize(5)", got)
	}
	time.Sleep(5 * time.Millisecond)
	if err := srv.Resize(1); err != nil {
		t.Fatalf("scale-down under fire: %v", err)
	}
	time.Sleep(5 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if f := failed.Load(); f != 0 {
		t.Fatalf("%d requests failed across resizes", f)
	}
	if st := srv.Stats(); st.Workers != 1 {
		t.Fatalf("Stats().Workers = %d, want 1", st.Workers)
	}
	if err := srv.Resize(0); !errors.Is(err, ErrConfig) {
		t.Fatalf("Resize(0) err = %v, want ErrConfig", err)
	}
}

// TestResizeRefusedWithoutHeadroom: on a device whose budget holds the
// current generation but not current+target, scale-up must be refused with
// ErrSecureMemory and the old width must keep serving — the hot-swap
// headroom rule applied to elasticity.
func TestResizeRefusedWithoutHeadroom(t *testing.T) {
	probe, err := New(testDeployment(t, 85), Config{Workers: 2, MaxBatch: 2, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	one := probe.budget.Used()
	probe.Close()

	tight := tee.WithSecureMem(tee.RaspberryPi3(), one+one/2)
	srv, err := New(testDeploymentOn(t, 85, tight), Config{Workers: 2, MaxBatch: 2, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	err = srv.Resize(4)
	if !errors.Is(err, core.ErrSecureMemory) {
		t.Fatalf("over-budget Resize err = %v, want ErrSecureMemory", err)
	}
	if got := srv.Workers(); got != 2 {
		t.Fatalf("Workers() = %d after refused resize, want 2", got)
	}
	if _, err := srv.Infer(context.Background(), randSamples(1, 86)[0]); err != nil {
		t.Fatalf("old width broken after refused resize: %v", err)
	}
}

// TestSwapDuringResizeUnderFire is the elasticity acceptance test: 16
// goroutines hammer Infer while a hot swap and a scale-up run
// simultaneously. Not one request may drop, and once both complete every
// response must be bit-identical to the new model's.
func TestSwapDuringResizeUnderFire(t *testing.T) {
	depA := testDeployment(t, 90)
	depB := testDeployment(t, 91)
	xs := randSamples(32, 92)
	wantB := sequentialLabels(t, testDeployment(t, 91), xs)

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
	time.Sleep(10 * time.Millisecond)
	var ops sync.WaitGroup
	ops.Add(2)
	go func() {
		defer ops.Done()
		if err := srv.SwapModel(DefaultModel, depB); err != nil {
			t.Errorf("swap during scale-up: %v", err)
		}
	}()
	go func() {
		defer ops.Done()
		if err := srv.Resize(6); err != nil {
			t.Errorf("scale-up during swap: %v", err)
		}
	}()
	ops.Wait()
	time.Sleep(10 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if f := failed.Load(); f != 0 {
		t.Fatalf("%d requests dropped across swap+resize (served %d)", f, served.Load())
	}
	if s := served.Load(); s < hammers {
		t.Fatalf("only %d requests served by %d hammers", s, hammers)
	}
	if got := srv.Workers(); got != 6 {
		t.Fatalf("Workers() = %d, want 6", got)
	}
	// Whichever of swap and resize committed last rebuilt from the swapped
	// template, so the served weights must now be depB's in either order.
	for i, x := range xs {
		got, err := srv.Infer(context.Background(), x)
		if err != nil {
			t.Fatalf("post-op request %d: %v", i, err)
		}
		if got != wantB[i] {
			t.Fatalf("post-op label[%d] = %d, want new model's %d", i, got, wantB[i])
		}
	}
}

// TestPaceScaleAndObserver: with pacing on, a request's realized service
// time must stretch to at least the modeled latency times the scale, and the
// Observer must see every served sample with that paced per-sample figure.
func TestPaceScaleAndObserver(t *testing.T) {
	var samples atomic.Int64
	var slowest atomic.Int64
	srv, err := New(testDeployment(t, 95), Config{
		Workers:   1,
		MaxBatch:  1,
		MaxDelay:  100 * time.Microsecond,
		PaceScale: 50,
		Observer: func(model string, n int, perSample time.Duration) {
			if model != DefaultModel {
				return
			}
			samples.Add(int64(n))
			for {
				cur := slowest.Load()
				if int64(perSample) <= cur || slowest.CompareAndSwap(cur, int64(perSample)) {
					break
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	x := randSamples(1, 96)[0]
	start := time.Now()
	const n = 4
	for i := 0; i < n; i++ {
		if _, err := srv.Infer(context.Background(), x); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	if got := samples.Load(); got != n {
		t.Fatalf("observer saw %d samples, want %d", got, n)
	}
	if slowest.Load() == 0 {
		t.Fatal("observer never saw a positive per-sample service time")
	}
	// The pace sleep must dominate the wall clock: n sequential requests on
	// one worker each sleep modeled-latency×50.
	if elapsed < time.Duration(slowest.Load()) {
		t.Fatalf("wall %v shorter than one observed service time %v", elapsed, time.Duration(slowest.Load()))
	}
}
