package tbnet

import (
	"context"
	"fmt"

	"tbnet/internal/core"
	"tbnet/internal/data"
	"tbnet/internal/zoo"
)

// Phase identifies one stage of the TBNet pipeline for progress reporting.
type Phase string

// The pipeline's phases, in execution order (the values of core.Phase).
// PhasePrune covers the whole iterative prune/fine-tune/evaluate loop of
// Alg. 1.
const (
	PhaseVictim   Phase = "victim"
	PhaseTransfer Phase = "transfer"
	PhasePrune    Phase = "prune"
	PhaseFinalize Phase = "finalize"
)

// PipelineOption configures a Pipeline. Options validate eagerly: NewPipeline
// returns the first option error, wrapped around ErrBadOption.
type PipelineOption func(*Pipeline) error

// Pipeline is the composable builder over TBNet's six-step flow: train the
// victim, build the two-branch substitution, transfer knowledge, prune
// iteratively, and finalize with rollback. Construct with NewPipeline, then
// call Run.
type Pipeline struct {
	arch     string
	dataset  string
	seed     uint64
	progress func(Phase, int)

	// scale starts as the "ci" preset (core.ScaleByName); the sizing and
	// budget options edit it in place.
	scale core.Scale
}

// WithArch selects the victim architecture: "vgg", "resnet", "mobilenet",
// or the CI-scale "tiny-vgg" / "tiny-resnet" variants (default "vgg").
func WithArch(arch string) PipelineOption {
	return func(p *Pipeline) error {
		if _, ok := zoo.ArchByName(arch); !ok {
			return fmt.Errorf("%w: unknown architecture %q", ErrBadOption, arch)
		}
		p.arch = arch
		return nil
	}
}

// WithDataset selects the synthetic task: "c10" (CIFAR-10-like) or "c100"
// (CIFAR-100-like; default "c10").
func WithDataset(name string) PipelineOption {
	return func(p *Pipeline) error {
		if _, ok := data.SynthByName(name); !ok {
			return fmt.Errorf("%w: unknown dataset %q (want c10 or c100)", ErrBadOption, name)
		}
		p.dataset = name
		return nil
	}
}

// WithSeed sets the master seed; every random decision in the pipeline
// derives deterministically from it (default 1).
func WithSeed(seed uint64) PipelineOption {
	return func(p *Pipeline) error {
		p.seed = seed
		return nil
	}
}

// WithProgress installs a callback invoked as the pipeline advances: once
// per completed epoch of the victim, transfer, and pruning fine-tune loops
// (epoch is the zero-based index within the phase), and once with epoch -1
// when a phase completes.
func WithProgress(fn func(phase Phase, epoch int)) PipelineOption {
	return func(p *Pipeline) error {
		if fn == nil {
			return fmt.Errorf("%w: nil progress callback", ErrBadOption)
		}
		p.progress = fn
		return nil
	}
}

// WithDatasetSize sets the synthetic train/test sample counts (default
// 120/60 for c10, 144/72 for c100).
func WithDatasetSize(train, test int) PipelineOption {
	return func(p *Pipeline) error {
		if train < 1 || test < 1 {
			return fmt.Errorf("%w: dataset size %d/%d must be positive", ErrBadOption, train, test)
		}
		p.scale.TrainN, p.scale.TestN = train, test
		p.scale.C100TrainN, p.scale.C100TestN = train, test
		return nil
	}
}

// WithEpochs sets the victim-training, knowledge-transfer, and per-iteration
// pruning fine-tune epoch budgets (default 8/10/1).
func WithEpochs(victim, transfer, fineTune int) PipelineOption {
	return func(p *Pipeline) error {
		if victim < 0 || transfer < 1 || fineTune < 0 {
			return fmt.Errorf("%w: epoch budgets %d/%d/%d", ErrBadOption, victim, transfer, fineTune)
		}
		p.scale.VictimEpochs, p.scale.TransferEpochs, p.scale.FineTuneEpochs = victim, transfer, fineTune
		return nil
	}
}

// WithPruning sets the tolerated accuracy drop θ_drop and the maximum
// pruning iterations (default 0.20 / 4).
func WithPruning(dropBudget float64, maxIters int) PipelineOption {
	return func(p *Pipeline) error {
		if dropBudget < 0 || maxIters < 0 {
			return fmt.Errorf("%w: pruning budget %g / iters %d", ErrBadOption, dropBudget, maxIters)
		}
		p.scale.DropBudget, p.scale.PruneIters = dropBudget, maxIters
		return nil
	}
}

// WithHyperparams sets the learning rate and the BN sparsity strength λ of
// Eq. 1 (default 0.03 / 5e-4).
func WithHyperparams(lr, lambda float64) PipelineOption {
	return func(p *Pipeline) error {
		if lr <= 0 || lambda < 0 {
			return fmt.Errorf("%w: lr %g / lambda %g", ErrBadOption, lr, lambda)
		}
		p.scale.LR, p.scale.Lambda = lr, lambda
		return nil
	}
}

// NewPipeline builds a pipeline from CPU-scale defaults (a VGG victim on the
// 10-class synthetic task, the "ci" scale's sizes and budgets) modified by
// opts. It fails fast on the first invalid option.
func NewPipeline(opts ...PipelineOption) (*Pipeline, error) {
	ci, err := core.ScaleByName("ci")
	if err != nil {
		return nil, err
	}
	p := &Pipeline{arch: "vgg", dataset: "c10", seed: 1, scale: ci}
	for _, opt := range opts {
		if err := opt(p); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// PipelineResult is the outcome of one pipeline run. TB is finalized and
// ready for Deploy.
type PipelineResult struct {
	// Train and Test are the synthetic dataset splits the run used.
	Train, Test *Dataset
	// Victim is the trained victim model (step 0 of the paper's flow).
	Victim *Model
	// VictimAcc is the victim's top-1 test accuracy.
	VictimAcc float64
	// TB is the finalized two-branch substitution model.
	TB *TwoBranch
	// TBAcc is the benign-user accuracy of the two-branch model (M_T head).
	TBAcc float64
	// PruneRes records the iterative pruning history behind TB.
	PruneRes *PruneResult
}

// Run executes the six-step flow (core.Flow) and returns a finalized result.
// It checks ctx between phases; a cancelled context aborts with ctx.Err().
func (p *Pipeline) Run(ctx context.Context) (*PipelineResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	task, err := p.scale.Task(p.dataset, p.seed)
	if err != nil {
		return nil, err
	}
	b := p.scale.Budget
	b.Seed = p.seed
	if p.progress != nil {
		b.OnEpoch = func(phase core.Phase, epoch int) { p.progress(Phase(phase), epoch) }
	}
	f, err := core.NewFlow(p.arch, task, b)
	if err != nil {
		return nil, err
	}
	if err := f.Run(ctx); err != nil {
		return nil, err
	}
	return &PipelineResult{Train: f.Train, Test: f.Test, Victim: f.Victim, VictimAcc: f.VictimAcc,
		TB: f.TB, TBAcc: f.TBAcc, PruneRes: f.PruneRes}, nil
}
