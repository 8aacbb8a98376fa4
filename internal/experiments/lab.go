// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. 4–5) on the simulated substrate: Table 1 (accuracy and
// direct-use attack), Fig. 2 (fine-tuning attack vs data availability),
// Table 2 (M_T-only ablation), Fig. 3 (TEE memory), Table 3 (inference
// latency), Fig. 4 (BN weight distributions), plus the prior-art comparison
// ablation the paper discusses in Sec. 2.3. Catalog (catalog.go) is the one
// ordered list of them.
//
// The Lab runs the one train→transfer→prune→finalize flow (core.Flow) per
// (architecture, dataset) combination and memoizes it, so a full run trains
// each configuration once and derives all artifacts from it.
package experiments

import (
	"context"
	"fmt"
	"io"

	"tbnet/internal/core"
	"tbnet/internal/tee"
)

// Scale sizes the experiments; the named presets are written down beside
// the flow they size (core.ScaleByName).
type Scale = core.Scale

// Config is a Lab configuration.
type Config struct {
	Scale Scale
	Seed  uint64
	// Device is the hardware backend the latency and memory artifacts are
	// modeled on; nil selects the paper's testbed (the registered "rpi3").
	Device tee.Device
	Log    io.Writer // optional progress log
}

// Combo identifies one evaluated (architecture, dataset) pair.
type Combo struct {
	Arch    string // "vgg" | "resnet" (any zoo.ArchByName name runs)
	Dataset string // "c10" | "c100"
}

// AllCombos lists the paper's four evaluated configurations.
func AllCombos() []Combo {
	return []Combo{
		{Arch: "vgg", Dataset: "c10"},
		{Arch: "resnet", Dataset: "c10"},
		{Arch: "vgg", Dataset: "c100"},
		{Arch: "resnet", Dataset: "c100"},
	}
}

// Pipeline is the finished TBNet flow for one combo — trained victim,
// finalized two-branch model, accuracies, pruning history — plus the
// snapshot the pre-pruning artifacts read.
type Pipeline struct {
	*core.Flow
	PostTransfer *core.TwoBranch // snapshot after step 2, before pruning
}

// Lab memoizes pipelines and derives the paper's artifacts.
type Lab struct {
	cfg Config
	// budget is the scale's budget under the lab's seed and log.
	budget core.Budget
	cache  map[Combo]*Pipeline
}

// NewLab creates a lab.
func NewLab(cfg Config) *Lab {
	b := cfg.Scale.Budget
	b.Seed, b.Log = cfg.Seed, cfg.Log
	return &Lab{cfg: cfg, budget: b, cache: make(map[Combo]*Pipeline)}
}

// device returns the configured hardware backend (default: the paper's rpi3).
func (l *Lab) device() tee.Device {
	if l.cfg.Device != nil {
		return l.cfg.Device
	}
	return tee.RaspberryPi3()
}

// measureDevice is the configured backend in measurement mode: identical cost
// semantics, unlimited secure memory, so footprints are reported instead of
// rejected.
func (l *Lab) measureDevice() tee.Device { return tee.Unbounded(l.device()) }

func (l *Lab) logf(format string, args ...any) {
	if l.cfg.Log != nil {
		fmt.Fprintf(l.cfg.Log, format, args...)
	}
}

// Run runs (or returns the memoized) full TBNet flow for a combo. An unknown
// architecture or dataset name is an error, reported before any training.
func (l *Lab) Run(c Combo) (*Pipeline, error) {
	if p, ok := l.cache[c]; ok {
		return p, nil
	}
	task, err := l.cfg.Scale.Task(c.Dataset, l.cfg.Seed)
	if err != nil {
		return nil, err
	}
	f, err := core.NewFlow(c.Arch, task, l.budget)
	if err != nil {
		return nil, err
	}
	p := &Pipeline{Flow: f}
	f.OnEpoch = func(phase core.Phase, epoch int) {
		if phase == core.PhaseTransfer && epoch < 0 {
			p.PostTransfer = f.TB.Clone()
		}
	}
	if err := f.Run(context.Background()); err != nil {
		return nil, err
	}
	l.cache[c] = p
	return p, nil
}

// Pipeline is Run for the combos the artifacts fix, which cannot fail.
func (l *Lab) Pipeline(c Combo) *Pipeline {
	p, err := l.Run(c)
	if err != nil {
		panic(err)
	}
	return p
}
