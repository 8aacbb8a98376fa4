package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"tbnet/internal/data"
)

// tinyFlow is a one-epoch-per-phase flow over the tiny VGG on a 32/16 c10
// task: the whole procedure in well under a second.
func tinyFlow(t *testing.T) *Flow {
	t.Helper()
	ci, err := ScaleByName("ci")
	if err != nil {
		t.Fatal(err)
	}
	ci.TrainN, ci.TestN = 32, 16
	task, err := ci.Task("c10", 1)
	if err != nil {
		t.Fatal(err)
	}
	b := ci.Budget
	b.Seed = 1
	b.VictimEpochs, b.TransferEpochs, b.FineTuneEpochs = 1, 1, 1
	b.PruneIters, b.DropBudget = 1, 1.0
	f, err := NewFlow("tiny-vgg", task, b)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestFlowEmitsPhasesInOrder: every epoch and every phase completion reaches
// OnEpoch in execution order, and a hook seeing PhaseTransfer complete reads
// the post-transfer, not yet finalized model — the contract the lab's
// snapshot rests on.
func TestFlowEmitsPhasesInOrder(t *testing.T) {
	f := tinyFlow(t)
	var seen []string
	f.OnEpoch = func(phase Phase, epoch int) {
		seen = append(seen, fmt.Sprintf("%s:%d", phase, epoch))
		if phase == PhaseTransfer && epoch < 0 && (f.TB == nil || f.TB.Finalized || f.PruneRes != nil) {
			t.Errorf("transfer completion must expose the unpruned, unfinalized model")
		}
	}
	if err := f.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := []string{"victim:0", "victim:-1", "transfer:0", "transfer:-1",
		"prune:0", "prune:-1", "finalize:-1"}
	if !reflect.DeepEqual(seen, want) {
		t.Fatalf("progress events = %v, want %v", seen, want)
	}
	if !f.TB.Finalized || f.PruneRes == nil {
		t.Fatal("a completed run delivers a finalized model and its pruning history")
	}
}

// TestFlowHonoursContext: the flow polls ctx between phases, so a cancelled
// context stops it after the phase in flight with ctx.Err().
func TestFlowHonoursContext(t *testing.T) {
	f := tinyFlow(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := f.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run err = %v, want context.Canceled", err)
	}
	if f.TB != nil {
		t.Fatal("a run cancelled during victim training must not start knowledge transfer")
	}
}

// TestScaleAndTaskResolution: the presets resolve by name, the c100 task
// takes its class count and split sizes from the scale, and unknown names
// are errors.
func TestScaleAndTaskResolution(t *testing.T) {
	for _, c := range []struct {
		scale          string
		classes, train int
	}{{"micro", 6, 60}, {"ci", 12, 144}, {"full", 24, 288}} {
		s, err := ScaleByName(c.scale)
		if err != nil || s.Label != c.scale {
			t.Fatalf("ScaleByName(%q) = %q, %v", c.scale, s.Label, err)
		}
		task, err := s.Task("c100", 1)
		if err != nil || task.Classes != c.classes || task.Train != c.train || task.Seed != 101 {
			t.Fatalf("%s c100 task = %+v, %v", c.scale, task, err)
		}
		if c10, err := s.Task("c10", 1); err != nil || c10.Classes != 10 || c10.Train != s.TrainN || c10.Seed != 11 {
			t.Fatalf("%s c10 task = %+v, %v", c.scale, c10, err)
		}
	}
	full, _ := ScaleByName("full")
	if task, _ := full.Task("c10", 1); task.NoiseStd != 0.65 || task.Separation != 0.35 {
		t.Fatalf("full scale must carry its noise and separation: %+v", task)
	}
	if _, err := ScaleByName("galactic"); err == nil {
		t.Fatal("unknown scale must be an error")
	}
	if _, err := full.Task("imagenet", 1); err == nil {
		t.Fatal("unknown dataset must be an error")
	}
	if _, err := NewFlow("transformer", data.SynthConfig{}, full.Budget); err == nil {
		t.Fatal("unknown architecture must be an error")
	}
}
