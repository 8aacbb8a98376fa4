package tbnet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"tbnet/internal/core"
	"tbnet/internal/zoo"
)

func TestPipelineOptionValidation(t *testing.T) {
	bad := []PipelineOption{
		WithArch("transformer"),
		WithDataset("imagenet"),
		WithDatasetSize(0, 10),
		WithEpochs(-1, 1, 1),
		WithEpochs(1, 0, 1),
		WithPruning(-0.1, 4),
		WithHyperparams(0, 1e-4),
		WithProgress(nil),
	}
	for i, opt := range bad {
		if _, err := NewPipeline(opt); !errors.Is(err, ErrBadOption) {
			t.Fatalf("option %d: err = %v, want ErrBadOption", i, err)
		}
	}
	if _, err := NewPipeline(); err != nil {
		t.Fatalf("defaults must be valid: %v", err)
	}
}

func TestPipelineRunAndServe(t *testing.T) {
	var mu sync.Mutex
	seen := map[Phase]int{}
	p, err := NewPipeline(
		WithArch("tiny-vgg"),
		WithDataset("c10"),
		WithSeed(7),
		WithDatasetSize(48, 24),
		WithEpochs(1, 1, 1),
		WithPruning(1.0, 1),
		WithProgress(func(ph Phase, epoch int) {
			mu.Lock()
			seen[ph]++
			mu.Unlock()
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.TB.Finalized {
		t.Fatal("pipeline result is not finalized")
	}
	if res.VictimAcc < 0 || res.VictimAcc > 1 || res.TBAcc < 0 || res.TBAcc > 1 {
		t.Fatalf("accuracies out of range: %v, %v", res.VictimAcc, res.TBAcc)
	}
	for _, ph := range []Phase{PhaseVictim, PhaseTransfer, PhasePrune, PhaseFinalize} {
		if seen[ph] == 0 {
			t.Fatalf("no progress events for phase %s (saw %v)", ph, seen)
		}
	}

	// The finalized result deploys and serves through the facade.
	dep, err := Deploy(res.TB, RaspberryPi3(), []int{6, 3, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewFleet(dep, WithDevice(dep.Device, 2), WithMaxBatch(4), WithMaxDelay(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	batch := res.Test.Batches(6, nil)[0]
	want, err := dep.Infer(batch.X)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]*Tensor, 0, len(want))
	for _, single := range res.Test.Batches(1, nil)[:len(want)] {
		xs = append(xs, single.X)
	}
	got := make([]int, len(xs))
	errs := make([]error, len(xs))
	var wg sync.WaitGroup
	for i := range xs {
		wg.Add(1)
		go func(i int) { defer wg.Done(); got[i], errs[i] = srv.Infer(context.Background(), xs[i]) }(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("served label %d != deployment label %d at %d", got[i], want[i], i)
		}
	}
	if st := srv.Stats(); st.Requests != int64(len(xs)) {
		t.Fatalf("stats requests = %d, want %d", st.Requests, len(xs))
	}
}

// TestPipelineMatchesRecordedArtifact pins the facade to the one flow: the
// micro-scale budgets spelled out as options train, bit for bit, the model
// `tbnet save -arch tiny-vgg -scale micro -seed 1` persists (cmd/tbnet's
// TestSaveArtifactPinned holds the same hash, recorded at commit ebc0fed).
func TestPipelineMatchesRecordedArtifact(t *testing.T) {
	const recorded = "15aa5f670227deb3072d93dcbd2b9a9a92323a6ffe0ca5cadcf2d30cef30e9a5"
	p, err := NewPipeline(
		WithArch("tiny-vgg"),
		WithSeed(1),
		WithDatasetSize(60, 30),
		WithEpochs(2, 2, 1),
		WithPruning(1.0, 1),
		WithHyperparams(0.05, 5e-4),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Deploy(res.TB, RaspberryPi3(), []int{1, 3, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveDeployment(&buf, dep); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != recorded {
		t.Fatalf("artifact sha256 = %s, recorded %s", got, recorded)
	}
}

// TestServeOptionValidation: the serving options of a one-node fleet —
// workers, max batch, max delay — reject bad values with ErrBadOption.
func TestServeOptionValidation(t *testing.T) {
	if _, err := NewFleet(nil); !errors.Is(err, ErrBadOption) {
		t.Fatalf("nil deployment: err = %v, want ErrBadOption", err)
	}
	dep := finalizedDeployment(t, 1)
	for name, opt := range map[string]FleetOption{
		"zero workers": WithDevice(dep.Device, 0), "zero max batch": WithMaxBatch(0),
		"negative max delay": WithMaxDelay(-time.Second),
	} {
		if _, err := NewFleet(dep, opt); !errors.Is(err, ErrBadOption) {
			t.Fatalf("%s: err = %v, want ErrBadOption", name, err)
		}
	}
	f, err := NewFleet(dep, WithMaxDelay(0)) // zero is the work-conserving default, not an error
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := f.Infer(context.Background(), NewTensor(1, 3, 16, 16)); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("closed fleet err = %v, want ErrServerClosed", err)
	}
}

func TestDeploySentinelsThroughFacade(t *testing.T) {
	victim := zoo.BuildVGG(zoo.VGG18Config(4), NewRNG(1))
	tb := core.NewTwoBranch(victim, 2)
	if _, err := Deploy(tb, RaspberryPi3(), []int{1, 3, 16, 16}); !errors.Is(err, ErrNotFinalized) {
		t.Fatalf("unfinalized deploy err = %v, want ErrNotFinalized", err)
	}
	tb.Finalized = true
	if _, err := Deploy(tb, RaspberryPi3(), []int{1, 3}); !errors.Is(err, ErrShape) {
		t.Fatalf("bad shape deploy err = %v, want ErrShape", err)
	}
	// A custom cost model (the RegisterDevice embedding pattern) with a
	// 1-byte budget: nothing fits.
	small := CostModel{DeviceName: "tiny", REEFlops: 1e9, TEEFlops: 1e9,
		TransferRate: 1e9, SecureCapacity: 1}
	if _, err := Deploy(tb, small, []int{1, 3, 16, 16}); !errors.Is(err, ErrSecureMemory) {
		t.Fatalf("oversized deploy err = %v, want ErrSecureMemory", err)
	}
}
