package seceval

import (
	"context"
	"sync"
	"testing"
	"time"

	"tbnet/internal/core"
	"tbnet/internal/fleet"
	"tbnet/internal/tee"
	"tbnet/internal/tensor"
)

func probeBatch(n int, seed uint64) []*tensor.Tensor {
	rng := tensor.NewRNG(seed)
	xs := make([]*tensor.Tensor, n)
	for i := range xs {
		x := tensor.New(1, 3, 16, 16)
		rng.FillNormal(x, 0, 1)
		xs[i] = x
	}
	return xs
}

// TestBatchedFleetTracesDegradeAttack is the acceptance lock for the live
// capture: serving-time batching is itself a (free) defense. Coalesced runs
// stage k-sample payloads, so an attacker who assumes single-sample probes
// mis-divides every width — batched multi-tenant fleet traces must score a
// strictly lower hit rate than the isolated single-session baseline, which
// recovers the pre-rollback architecture exactly.
func TestBatchedFleetTracesDegradeAttack(t *testing.T) {
	dep := testDeployment(t, tee.RaspberryPi3(), 61)
	tap := NewTap()
	f, err := fleet.New(dep, fleet.Config{
		Nodes:       []fleet.NodeConfig{{Device: tee.RaspberryPi3(), Workers: 1}},
		MaxBatch:    4,
		MaxDelay:    50 * time.Millisecond,
		MaxInFlight: -1,
		Tap:         tap,
	})
	if err != nil {
		t.Fatal(err)
	}
	const clients = 16
	xs := probeBatch(clients, 62)
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = f.Infer(context.Background(), xs[i])
		}(i)
	}
	wg.Wait()
	f.Close()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}

	subject := SubjectFor(dep)
	live := AttackRecords(tap.Runs(), subject)
	if live.Runs == 0 {
		t.Fatal("tap captured no runs")
	}
	if live.MeanBatch <= 1.0 {
		t.Fatalf("mean batch %v — concurrent clients never coalesced, fixture is broken",
			live.MeanBatch)
	}
	views, _, err := CaptureIsolated(dep, 4, 63)
	if err != nil {
		t.Fatal(err)
	}
	iso := AttackViews(views, subject)
	if iso.MeanHitRate != 1.0 {
		t.Fatalf("isolated baseline hit rate %v, want exact recovery pre-rollback", iso.MeanHitRate)
	}
	if live.MeanHitRate >= iso.MeanHitRate {
		t.Fatalf("batched fleet traces hit %v, not strictly below isolated %v",
			live.MeanHitRate, iso.MeanHitRate)
	}
}

// TestTapRaceUnderFleetFireAndSwap is the -race regression for the capture
// path: one tap observes a heterogeneous multi-tenant fleet while clients
// hammer both models and a hot swap replaces a tenant mid-stream. With
// admission control disabled nothing may shed, and every offered sample must
// surface in the tap exactly once.
func TestTapRaceUnderFleetFireAndSwap(t *testing.T) {
	dep := testDeployment(t, tee.RaspberryPi3(), 71)
	tenant := testDeployment(t, tee.RaspberryPi3(), 73)
	ch, err := ParseChain("pad:1024,dummy:0.5")
	if err != nil {
		t.Fatal(err)
	}
	tap := NewTap(WithObfuscation(ch), WithSeed(3))
	sgx, err := tee.ByName("sgx-desktop")
	if err != nil {
		t.Fatal(err)
	}
	f, err := fleet.New(dep, fleet.Config{
		Nodes: []fleet.NodeConfig{
			{Device: tee.RaspberryPi3(), Workers: 2},
			{Device: sgx, Workers: 2},
		},
		Models:      []fleet.NamedModel{{Name: "tenant-b", Dep: tenant}},
		MaxBatch:    4,
		MaxDelay:    time.Millisecond,
		MaxInFlight: -1,
		Tap:         tap,
	})
	if err != nil {
		t.Fatal(err)
	}
	const clients, perClient = 8, 12
	const offered = clients * perClient
	var wg sync.WaitGroup
	errCh := make(chan error, offered+4)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			xs := probeBatch(perClient, uint64(80+c))
			for i, x := range xs {
				var err error
				if (c+i)%2 == 0 {
					_, err = f.Infer(context.Background(), x)
				} else {
					_, err = f.InferModel(context.Background(), "tenant-b", x)
				}
				if err != nil {
					errCh <- err
				}
			}
		}(c)
	}
	swaps := []*core.Deployment{
		testDeployment(t, tee.RaspberryPi3(), 90),
		testDeployment(t, tee.RaspberryPi3(), 91),
		testDeployment(t, tee.RaspberryPi3(), 92),
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, s := range swaps {
			time.Sleep(2 * time.Millisecond)
			if err := f.SwapModel("tenant-b", s); err != nil {
				errCh <- err
			}
		}
	}()
	wg.Wait()
	f.Close()
	close(errCh)
	for err := range errCh {
		t.Fatalf("request shed or swap failed under fire: %v", err)
	}
	if got := tappedSamples(tap); got != offered {
		t.Fatalf("tap saw %d samples, offered %d — capture dropped or duplicated requests",
			got, offered)
	}
	if tap.OverheadSeconds() <= 0 {
		t.Fatal("obfuscation chain charged no overhead across the run")
	}
	stats := tap.OverheadStats()
	if len(stats) != 2 || stats[0].Runs == 0 {
		t.Fatalf("per-layer stats incomplete: %+v", stats)
	}
}
