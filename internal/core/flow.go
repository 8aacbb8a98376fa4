package core

import (
	"context"
	"fmt"
	"io"

	"tbnet/internal/data"
	"tbnet/internal/tensor"
	"tbnet/internal/zoo"
)

// This file is the paper's procedure end to end, once: the named scale
// presets, the task and victim a master seed derives, and Flow.Run — train
// the victim, build the two-branch substitution, transfer knowledge, prune
// iteratively, roll back. The public pipeline builder and the experiment lab
// are both callers, so the same architecture, dataset, scale and seed mean
// the same trained model everywhere.

// Phase names one step of the flow for progress reporting.
type Phase string

// The flow's phases, in execution order. PhasePrune covers the whole
// iterative prune/fine-tune/evaluate loop of Alg. 1.
const (
	PhaseVictim   Phase = "victim"
	PhaseTransfer Phase = "transfer"
	PhasePrune    Phase = "prune"
	PhaseFinalize Phase = "finalize"
)

// Budget is what one run of the flow may spend and where it reports. Every
// random decision derives from Seed: the victim's initialization (+1), its
// training shuffle (+2), the two-branch initialization (+3), the transfer
// shuffle (+4), the pruning fine-tune shuffles (+5), and the task's splits
// (+10 for c10, +100 for c100).
type Budget struct {
	VictimEpochs   int
	TransferEpochs int
	FineTuneEpochs int     // recovery epochs per pruning iteration
	PruneIters     int     // bound on pruning iterations
	DropBudget     float64 // θ_drop of Alg. 1
	BatchSize      int
	LR             float64
	Lambda         float64 // BN sparsity strength λ of Eq. 1
	Seed           uint64
	Log            io.Writer // optional progress log
	// OnEpoch, when set, is called after every completed epoch of the
	// victim, transfer and pruning fine-tune loops (epoch is the zero-based
	// index within the phase) and once with epoch -1 when a phase completes.
	OnEpoch func(phase Phase, epoch int)
}

// TrainConfig returns the budget's optimizer settings for one training run
// of the given length, sparsity strength and shuffle seed.
func (b Budget) TrainConfig(epochs int, lambda float64, seed uint64) TrainConfig {
	cfg := DefaultTrainConfig(epochs)
	cfg.BatchSize = b.BatchSize
	cfg.LR = b.LR
	cfg.Lambda = lambda
	cfg.Seed = seed
	cfg.Log = b.Log
	return cfg
}

// PruneConfig derives Alg. 1's configuration from the budget: its iteration
// bound and drop budget, and recovery fine-tuning at a quarter of the base
// learning rate, shuffled from seed, with channels ranked by rank.
func (b Budget) PruneConfig(seed uint64, rank Ranking) PruneConfig {
	pc := DefaultPruneConfig(b.DropBudget, b.FineTuneEpochs)
	pc.MaxIters = b.PruneIters
	pc.FineTune = b.TrainConfig(b.FineTuneEpochs, b.Lambda, seed)
	pc.FineTune.LR = b.LR / 4
	pc.Rank = rank
	return pc
}

// Scale is one named preset sizing the flow and the evaluation around it.
// All presets exercise identical code paths; only sample counts and budgets
// differ. The embedded Budget's Seed, Log and OnEpoch are the caller's to
// set.
type Scale struct {
	Label string
	Budget
	TrainN, TestN         int // the c10 task's splits
	C100Classes           int // class count of the "CIFAR-100-like" task
	C100TrainN, C100TestN int
	AttackEpochs          int       // the attacker's fine-tuning budget
	Fractions             []float64 // training-data availabilities of Fig. 2
	// Noise overrides the datasets' per-pixel noise std when > 0; harder
	// tasks keep the evaluation off the 100%-accuracy ceiling.
	Noise float64
	// Separation, when > 0, blends class prototypes towards a shared base
	// (see data.SynthConfig.Separation) so accuracy depends on capacity.
	Separation float64
}

// scales is the one place the presets are written down.
var scales = []Scale{
	// micro exercises every code path in a few seconds per flow and backs
	// the benchmark harness, where each artifact regeneration must fit in a
	// benchmark iteration.
	{
		Label: "micro",
		Budget: Budget{VictimEpochs: 2, TransferEpochs: 2, FineTuneEpochs: 1,
			PruneIters: 1, DropBudget: 1.0, BatchSize: 16, LR: 0.05, Lambda: 5e-4},
		TrainN: 60, TestN: 30,
		C100Classes: 6, C100TrainN: 60, C100TestN: 30,
		AttackEpochs: 1,
		Fractions:    []float64{0.5, 1.0},
	},
	// ci is the smoke-test scale and the pipeline builder's default: victims
	// train to useful accuracy in about a minute per flow (learning rate
	// calibrated on the 1-core CI box: VGG converges at 0.05 by epoch ~6,
	// ResNet needs ~0.02 and 8 epochs, so 0.03 with 8 epochs serves both).
	{
		Label: "ci",
		Budget: Budget{VictimEpochs: 8, TransferEpochs: 10, FineTuneEpochs: 1,
			PruneIters: 4, DropBudget: 0.20, BatchSize: 16, LR: 0.03, Lambda: 5e-4},
		TrainN: 120, TestN: 60,
		C100Classes: 12, C100TrainN: 144, C100TestN: 72,
		AttackEpochs: 3,
		Fractions:    []float64{0.1, 0.5, 1.0},
	},
	// full is the scale of a recorded `tbnet experiment all -scale full`
	// run. The noise level is raised so the victims sit near (not on) the
	// accuracy ceiling, keeping the fine-tuning attack and M_T-alone
	// comparisons informative.
	{
		Label: "full",
		Budget: Budget{VictimEpochs: 14, TransferEpochs: 14, FineTuneEpochs: 2,
			PruneIters: 5, DropBudget: 0.12, BatchSize: 16, LR: 0.03, Lambda: 3e-4},
		TrainN: 240, TestN: 160,
		C100Classes: 24, C100TrainN: 288, C100TestN: 192,
		AttackEpochs: 5,
		Fractions:    []float64{0.01, 0.1, 0.25, 0.5, 0.75, 1.0},
		Noise:        0.65,
		Separation:   0.35,
	},
}

// ScaleByName resolves "micro", "ci" or "full".
func ScaleByName(name string) (Scale, error) {
	for _, s := range scales {
		if s.Label == name {
			return s, nil
		}
	}
	return Scale{}, fmt.Errorf("unknown scale %q (want micro, ci, or full)", name)
}

// Task returns the generator configuration of the named synthetic task at
// this scale. The 100-class task runs as a CPU-sized stand-in with its own
// split sizes and class count.
func (s Scale) Task(dataset string, seed uint64) (data.SynthConfig, error) {
	mk, ok := data.SynthByName(dataset)
	if !ok {
		return data.SynthConfig{}, fmt.Errorf("unknown dataset %q (want c10 or c100)", dataset)
	}
	cfg := mk(s.TrainN, s.TestN, seed+10)
	if dataset == "c100" {
		cfg = mk(s.C100TrainN, s.C100TestN, seed+100)
		cfg.Classes = s.C100Classes
	}
	if s.Noise > 0 {
		cfg.NoiseStd = s.Noise
	}
	if s.Separation > 0 {
		cfg.Separation = s.Separation
	}
	return cfg, nil
}

// Flow is one run of the paper's procedure over a built victim and its
// splits. Run fills the result fields as phases complete, so an OnEpoch hook
// seeing a phase finish (epoch -1) can read what that phase produced: TB
// after PhaseTransfer is the post-transfer, pre-pruning model.
type Flow struct {
	Budget
	// Victim is trained in place (step 0 of the paper's flow).
	Victim      *zoo.Model
	Train, Test *data.Dataset

	// VictimAcc is the victim's top-1 test accuracy.
	VictimAcc float64
	// TB is the two-branch substitution model; finalized when Run returns.
	TB *TwoBranch
	// TBAcc is the benign-user accuracy of the finalized model (M_T head).
	TBAcc float64
	// PruneRes records the iterative pruning history behind TB.
	PruneRes *PruneResult
}

// NewFlow generates the task's splits and builds the named architecture,
// untrained, for it: a flow ready to Run under b.
func NewFlow(arch string, task data.SynthConfig, b Budget) (*Flow, error) {
	build, ok := zoo.ArchByName(arch)
	if !ok {
		return nil, fmt.Errorf("unknown architecture %q", arch)
	}
	train, test := data.Generate(task)
	victim := build(train.Classes, tensor.NewRNG(b.Seed+1))
	return &Flow{Budget: b, Victim: victim, Train: train, Test: test}, nil
}

// String names the run by what it trains on what, e.g. "VGG18-S/SynthC10".
func (f *Flow) String() string { return f.Victim.Name + "/" + f.Train.Name }

// hooked returns cfg reporting its epochs to OnEpoch under phase.
func (f *Flow) hooked(phase Phase, cfg TrainConfig) TrainConfig {
	if f.OnEpoch != nil {
		cfg.OnEpoch = func(epoch int, _ float64) { f.OnEpoch(phase, epoch) }
	}
	return cfg
}

// Run executes victim training, the two-branch substitution, knowledge
// transfer, iterative pruning and rollback finalization, in that order. It
// checks ctx between phases; a cancelled context aborts with ctx.Err().
func (f *Flow) Run(ctx context.Context) error {
	logf := func(format string, args ...any) {
		if f.Log != nil {
			fmt.Fprintf(f.Log, "[%s] "+format, append([]any{f}, args...)...)
		}
	}
	// done reports a phase complete and polls ctx.
	done := func(phase Phase) error {
		if f.OnEpoch != nil {
			f.OnEpoch(phase, -1)
		}
		return ctx.Err()
	}

	logf("training victim (%d epochs)\n", f.VictimEpochs)
	TrainModel(f.Victim, f.Train, nil,
		f.hooked(PhaseVictim, f.TrainConfig(f.VictimEpochs, 0, f.Seed+2)))
	f.VictimAcc = EvaluateModel(f.Victim, f.Test, f.BatchSize)
	if err := done(PhaseVictim); err != nil {
		return err
	}

	logf("knowledge transfer (%d epochs)\n", f.TransferEpochs)
	f.TB = NewTwoBranch(f.Victim, f.Seed+3)
	TrainTwoBranch(f.TB, f.Train, f.Test,
		f.hooked(PhaseTransfer, f.TrainConfig(f.TransferEpochs, f.Lambda, f.Seed+4)))
	if err := done(PhaseTransfer); err != nil {
		return err
	}

	logf("iterative two-branch pruning (≤%d iters)\n", f.PruneIters)
	pc := f.PruneConfig(f.Seed+5, RankComposite)
	pc.FineTune = f.hooked(PhasePrune, pc.FineTune)
	f.PruneRes = PruneTwoBranch(f.TB, f.Train, f.Test, pc)
	if err := done(PhasePrune); err != nil {
		return err
	}

	FinalizeRollback(f.TB, f.PruneRes)
	f.TBAcc = EvaluateTwoBranch(f.TB, f.Test, f.BatchSize)
	logf("victim %.4f → TBNet %.4f (%d pruning iterations)\n",
		f.VictimAcc, f.TBAcc, f.PruneRes.Iterations)
	_ = done(PhaseFinalize) // the work is complete; a late cancellation does not discard it
	return nil
}
