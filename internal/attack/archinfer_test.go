package attack

import (
	"testing"

	"tbnet/internal/core"
	"tbnet/internal/tee"
	"tbnet/internal/tensor"
	"tbnet/internal/zoo"
)

// deployAndTrace deploys tb and returns the attacker-visible trace of one
// single-sample inference: its script's view.
func deployAndTrace(t *testing.T, tb *core.TwoBranch) []tee.Event {
	t.Helper()
	device := tee.Unbounded(tee.RaspberryPi3())
	dep, err := core.Deploy(tb, device, []int{1, 3, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	script, err := dep.Script(1)
	if err != nil {
		t.Fatal(err)
	}
	return script.AttackerView()
}

// finalizedPair builds a pruned two-branch model, returning the version with
// and without rollback finalization.
func finalizedPair(t *testing.T) (withRb, withoutRb *core.TwoBranch) {
	t.Helper()
	train, test := task(4, 64, 32, 21)
	victim := zoo.BuildVGG(zoo.TinyVGGConfig(4), tensor.NewRNG(22))
	core.TrainModel(victim, train, nil, cfg(2))
	tb := core.NewTwoBranch(victim, 23)
	core.TrainTwoBranch(tb, train, test, cfg(2))
	pc := core.DefaultPruneConfig(1.0, 1)
	pc.MaxIters = 2
	pc.FineTune = cfg(1)
	res := core.PruneTwoBranch(tb, train, test, pc)
	if res.Iterations == 0 {
		t.Skip("no pruning applied")
	}
	withoutRb = tb.Clone()
	withoutRb.Finalized = true
	core.FinalizeRollback(tb, res)
	return tb, withoutRb
}

func TestArchInferenceExactWithoutRollback(t *testing.T) {
	_, noRb := finalizedPair(t)
	view := deployAndTrace(t, noRb)
	guess := InferArchitecture(view, noRb.MR.Clone(), []int{1, 3, 16, 16})
	if hr := guess.HitRate(noRb.MT); hr != 1.0 {
		t.Fatalf("without rollback the attacker should recover M_T exactly, hit rate %v", hr)
	}
}

func TestArchInferenceDegradedByRollback(t *testing.T) {
	withRb, _ := finalizedPair(t)
	view := deployAndTrace(t, withRb)
	guess := InferArchitecture(view, withRb.MR.Clone(), []int{1, 3, 16, 16})
	if hr := guess.HitRate(withRb.MT); hr == 1.0 {
		t.Fatal("rollback should prevent exact architecture recovery")
	}
	// The guess tracks M_R's (wider) transfer payloads.
	for i, w := range guess.Widths {
		if w != withRb.MR.Stages[i].OutChannels() {
			t.Fatalf("stage %d guess %d, expected M_R width %d", i, w, withRb.MR.Stages[i].OutChannels())
		}
	}
}

func TestArchInferenceEmptyTrace(t *testing.T) {
	m := zoo.BuildVGG(zoo.TinyVGGConfig(4), tensor.NewRNG(24))
	g := InferArchitecture(nil, m, []int{1, 3, 16, 16})
	if len(g.Widths) != 0 || g.HitRate(m) != 0 {
		t.Fatal("empty trace must yield an empty guess")
	}
}
