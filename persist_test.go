package tbnet

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tbnet/internal/core"
	"tbnet/internal/zoo"
)

// finalizedDeployment builds a small deployed model without the training
// pipeline (persistence is weight-agnostic).
func finalizedDeployment(t testing.TB, seed uint64) *Deployment {
	t.Helper()
	victim := zoo.BuildVGG(zoo.TinyVGGConfig(4), NewRNG(seed))
	tb := core.NewTwoBranch(victim, seed+1)
	tb.Finalized = true
	dep, err := Deploy(tb, RaspberryPi3(), []int{1, 3, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

func probeInputs(n int, seed uint64) []*Tensor {
	rng := NewRNG(seed)
	xs := make([]*Tensor, n)
	for i := range xs {
		xs[i] = NewTensor(1, 3, 16, 16)
		rng.FillNormal(xs[i], 0, 1)
	}
	return xs
}

// savedArtifact returns a fresh finalized deployment and its saved artifact.
func savedArtifact(t *testing.T, seed uint64) (*Deployment, []byte) {
	t.Helper()
	dep := finalizedDeployment(t, seed)
	var buf bytes.Buffer
	if err := SaveDeployment(&buf, dep); err != nil {
		t.Fatal(err)
	}
	return dep, buf.Bytes()
}

// sameLabels fails unless want and got label every input alike.
func sameLabels(t *testing.T, want, got *Deployment, xs []*Tensor) {
	t.Helper()
	for i, x := range xs {
		a, errA := want.Infer(x)
		b, errB := got.Infer(x)
		if err := errors.Join(errA, errB); err != nil || a[0] != b[0] {
			t.Fatalf("input %d: label %v, want %v (err %v)", i, b, a, err)
		}
	}
}

// TestSaveLoadDeploymentBitIdentical: the facade round trip restores the
// saved device, shape, and exact inference function.
func TestSaveLoadDeploymentBitIdentical(t *testing.T) {
	dep, art := savedArtifact(t, 1)
	loaded, err := LoadDeploymentOn(bytes.NewReader(art), nil)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Device.Name() != "rpi3" {
		t.Fatalf("restored device %q, want rpi3", loaded.Device.Name())
	}
	sameLabels(t, dep, loaded, probeInputs(8, 2))
}

// TestLoadDeploymentOnRetargets: the device override changes the cost model,
// not the function.
func TestLoadDeploymentOnRetargets(t *testing.T) {
	dep, art := savedArtifact(t, 3)
	jet, err := DeviceByName("jetson-tz")
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDeploymentOn(bytes.NewReader(art), jet)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Device.Name() != "jetson-tz" {
		t.Fatalf("device = %q, want jetson-tz", loaded.Device.Name())
	}
	sameLabels(t, dep, loaded, probeInputs(1, 4))
}

// TestLoadDeploymentRejectsCorruption: the facade surfaces ErrBadArtifact.
func TestLoadDeploymentRejectsCorruption(t *testing.T) {
	_, art := savedArtifact(t, 5)
	art[len(art)/2] ^= 1
	if _, err := LoadDeploymentOn(bytes.NewReader(art), nil); !errors.Is(err, ErrBadArtifact) {
		t.Fatalf("err = %v, want ErrBadArtifact", err)
	}
}

// TestRegistryRoundTripAndIntegrity: the facade registry saves, lists,
// reloads, and detects tampering.
func TestRegistryRoundTripAndIntegrity(t *testing.T) {
	dir := t.TempDir()
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Dir() != dir {
		t.Fatalf("Dir() = %q, want %q", reg.Dir(), dir)
	}
	dep := finalizedDeployment(t, 6)
	entry, err := reg.Save("prod", dep)
	if err != nil {
		t.Fatal(err)
	}
	if entry.Name != "prod" || entry.Device != "rpi3" {
		t.Fatalf("entry = %+v", entry)
	}
	entries, err := reg.List()
	if err != nil || len(entries) != 1 {
		t.Fatalf("List = %v, %v", entries, err)
	}
	loaded, err := reg.Load("prod")
	if err != nil {
		t.Fatal(err)
	}
	sameLabels(t, dep, loaded, probeInputs(1, 7))
	if _, err := reg.Load("ghost"); !errors.Is(err, ErrModelNotFound) {
		t.Fatalf("missing load err = %v", err)
	}

	// Tamper with the stored artifact: Load must refuse with ErrIntegrity.
	path := filepath.Join(dir, "prod.tbd")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-5] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Load("prod"); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("tampered load err = %v, want ErrIntegrity", err)
	}
}

// TestFacadeMultiModelFleetWithSwap: WithModel + InferModel + SwapModel
// through the public API.
func TestFacadeMultiModelFleetWithSwap(t *testing.T) {
	depA := finalizedDeployment(t, 10)
	depB := finalizedDeployment(t, 11)
	depC := finalizedDeployment(t, 12)
	f, err := NewFleet(depA,
		WithDevice(RaspberryPi3(), 1),
		WithModel("beta", depB),
		WithPolicy(RoundRobin()),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	xs := probeInputs(6, 13)
	wantC := make([]int, len(xs))
	for i, x := range xs {
		labels, err := depC.Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		wantC[i] = labels[0]
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := f.InferModel(ctx, "beta", xs[0]); err != nil {
		t.Fatal(err)
	}
	if err := f.SwapModel("beta", depC); err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		got, err := f.InferModel(ctx, "beta", x)
		if err != nil {
			t.Fatal(err)
		}
		if got != wantC[i] {
			t.Fatalf("post-swap beta label[%d] = %d, want %d", i, got, wantC[i])
		}
	}
	st := f.Stats()
	if len(st.Models) != 2 {
		t.Fatalf("fleet stats models = %+v", st.Models)
	}
	var betaSwaps int64
	for _, m := range st.Models {
		if m.Name == "beta" {
			betaSwaps = m.Swaps
		}
	}
	if betaSwaps != 1 {
		t.Fatalf("beta swaps = %d, want 1", betaSwaps)
	}
}
