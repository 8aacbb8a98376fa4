package tbnet

// Integration tests through the public facade: the API a downstream user
// sees, exercised end to end.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestFacadeEndToEnd: the one flow (Pipeline) yields a finalized model that
// deploys at both precisions and that both attacks run against.
func TestFacadeEndToEnd(t *testing.T) {
	p, err := NewPipeline(WithArch("tiny-vgg"), WithSeed(3), WithDatasetSize(48, 24),
		WithEpochs(1, 1, 1), WithPruning(1.0, 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background())
	if err != nil || !res.TB.Finalized {
		t.Fatalf("pipeline: %v (finalized %v)", err, err == nil && res.TB.Finalized)
	}
	batch := res.Test.Batches(4, nil)[0]
	deps := map[Precision]*Deployment{}
	for name, deploy := range map[string]func(*TwoBranch, Device, []int) (*Deployment, error){
		"f32": Deploy, "int8": DeployInt8,
	} {
		prec, err := ParsePrecision(name)
		if err != nil {
			t.Fatal(err)
		}
		dep, err := deploy(res.TB, RaspberryPi3(), []int{4, 3, 16, 16})
		if err != nil || dep.Precision() != prec {
			t.Fatalf("%s: deploy err = %v", name, err)
		}
		if labels, err := dep.Infer(batch.X); err != nil || len(labels) != 4 {
			t.Fatalf("%s: labels = %v, err = %v", name, labels, err)
		}
		deps[prec] = dep
	}
	if _, err := ParsePrecision("fp16"); !errors.Is(err, ErrShape) {
		t.Fatalf("unknown precision err = %v, want ErrShape", err)
	}

	stolen := deps[PrecisionF32].ExtractedMR()
	if atk := AttackDirectUse(stolen, res.Test, 16); atk < 0 || atk > 1 {
		t.Fatalf("direct-use accuracy %v out of range", atk)
	}
	cfg := DefaultTrainConfig(1)
	cfg.BatchSize = 16
	ft := AttackFineTune(stolen, res.Train, res.Test, FineTuneConfig{Fraction: 0.5, Train: cfg, SubsetSeed: 4})
	if ft < 0 || ft > 1 {
		t.Fatalf("fine-tune accuracy %v out of range", ft)
	}

	// An int8 deployment's M_R infers but holds no float32 weights to
	// train: fine-tuning it panics naming an int8 layer.
	stolen8 := deps[PrecisionInt8].ExtractedMR()
	if atk := AttackDirectUse(stolen8, res.Test, 16); atk < 0 || atk > 1 {
		t.Fatalf("int8 direct-use accuracy %v out of range", atk)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "is an int8 layer") {
			t.Fatalf("fine-tuning an int8 M_R: recovered %v, want the int8 layer's panic", r)
		}
	}()
	AttackFineTune(stolen8, res.Train, res.Test, FineTuneConfig{Fraction: 0.5, Train: cfg, SubsetSeed: 4})
}
