// Package attack implements the paper's threat model (Sec. 2.2): an attacker
// who extracts everything resident in the REE — i.e., the unsecured branch
// M_R, weights and architecture — and tries to obtain a model with accuracy
// comparable to the victim. Two attacks are evaluated:
//
//   - Direct use (Table 1's "Attack Acc."): run the stolen M_R standalone.
//   - Fine-tuning (Fig. 2): retrain the stolen M_R with a fraction of the
//     original training data, from 1% to 100%.
package attack

import (
	"tbnet/internal/core"
	"tbnet/internal/data"
	"tbnet/internal/zoo"
)

// DirectUse evaluates the stolen unsecured branch as a standalone classifier
// — the attacker transplants M_R (including the stale victim head left in
// REE) and uses it directly.
func DirectUse(stolen *zoo.Model, test *data.Dataset, batchSize int) float64 {
	return core.EvaluateModel(stolen, test, batchSize)
}

// FineTuneConfig controls the fine-tuning attack.
type FineTuneConfig struct {
	// Fraction of the victim's training data available to the attacker.
	Fraction float64
	// Train is the optimization configuration (the attacker trains every
	// parameter of the stolen model, head included).
	Train core.TrainConfig
	// SubsetSeed controls which examples the attacker holds.
	SubsetSeed uint64
}

// FineTune retrains a *copy* of the stolen branch on the attacker's data
// fraction and returns its test accuracy. The input model is not mutated.
// An int8 branch holds no float32 weights to train: its first backward
// panics naming the layer (nn.Weighted.Weight).
func FineTune(stolen *zoo.Model, train, test *data.Dataset, cfg FineTuneConfig) float64 {
	m := stolen.Clone()
	sub := train.Subset(cfg.Fraction, cfg.SubsetSeed)
	tc := cfg.Train
	tc.Lambda = 0 // the attacker has no reason to sparsify
	core.TrainModel(m, sub, nil, tc)
	return core.EvaluateModel(m, test, tc.BatchSize)
}

// Curve runs the fine-tuning attack across data-availability fractions,
// returning (fraction, accuracy) pairs — the series plotted in Fig. 2.
func Curve(stolen *zoo.Model, train, test *data.Dataset, fractions []float64, tc core.TrainConfig, seed uint64) [][2]float64 {
	out := make([][2]float64, 0, len(fractions))
	for i, f := range fractions {
		acc := FineTune(stolen, train, test, FineTuneConfig{
			Fraction:   f,
			Train:      tc,
			SubsetSeed: seed + uint64(i),
		})
		out = append(out, [2]float64{f, acc})
	}
	return out
}
