package experiments

import (
	"fmt"

	"tbnet/internal/attack"
	"tbnet/internal/core"
	"tbnet/internal/profile"
	"tbnet/internal/quant"
	"tbnet/internal/report"
	"tbnet/internal/seceval"
)

// This file implements the ablations of TBNet's own design choices: the
// composite BN ranking of Alg. 1 vs ranking by the secure branch alone, the
// effect of the rollback finalization, the strength of the sparsity
// regularization λ, and int8 quantization of the secure branch.

// AblationPruneRanking compares the paper's composite (BN_R + BN_T) channel
// ranking against ranking by M_T's BN weights alone, starting from the same
// post-transfer state and applying the same pruning schedule.
func (l *Lab) AblationPruneRanking() *report.Table {
	t := &report.Table{
		Title:  "Ablation: composite vs secure-only channel ranking (VGG18-S/SynthC10)",
		Header: []string{"Ranking", "Iterations", "TBNet Acc.", "Attack Acc."},
	}
	p := l.Pipeline(Combo{Arch: "vgg", Dataset: "c10"})
	s := l.cfg.Scale
	for _, rank := range []core.Ranking{core.RankComposite, core.RankSecureOnly} {
		tb := p.PostTransfer.Clone()
		res := core.PruneTwoBranch(tb, p.Train, p.Test, l.budget.PruneConfig(l.cfg.Seed+80, rank))
		core.FinalizeRollback(tb, res)
		acc := core.EvaluateTwoBranch(tb, p.Test, s.BatchSize)
		atk := attack.DirectUse(tb.MR.Clone(), p.Test, s.BatchSize)
		t.AddRow(rank.String(), fmt.Sprintf("%d", res.Iterations),
			report.Pct(acc), report.Pct(atk))
	}
	return t
}

// AblationRollback contrasts finalization with and without the rollback
// step: without it, M_R and M_T share the same architecture — exactly the
// leak the paper's step 6 exists to prevent — and the attacker's clone of
// M_R reveals M_T's layer widths.
func (l *Lab) AblationRollback() *report.Table {
	t := &report.Table{
		Title:  "Ablation: rollback finalization (VGG18-S/SynthC10)",
		Header: []string{"Finalization", "M_R = M_T arch?", "TBNet Acc.", "Attack Acc.", "Arch-infer hit rate"},
	}
	p := l.Pipeline(Combo{Arch: "vgg", Dataset: "c10"})
	s := l.cfg.Scale

	// Without rollback: prune, then freeze as-is.
	noRb := p.PostTransfer.Clone()
	core.PruneTwoBranch(noRb, p.Train, p.Test, l.budget.PruneConfig(l.cfg.Seed+81, core.RankComposite))
	noRb.Finalized = true // freeze without the rollback step
	sameArch := archEqual(noRb)
	acc := core.EvaluateTwoBranch(noRb, p.Test, s.BatchSize)
	atk := attack.DirectUse(noRb.MR.Clone(), p.Test, s.BatchSize)
	t.AddRow("none (M_R stays pruned)", fmt.Sprintf("%v", sameArch), report.Pct(acc),
		report.Pct(atk), report.Pct(l.archInferHitRate(noRb)))

	// With rollback: the pipeline's finalized model.
	accRb := p.TBAcc
	atkRb := attack.DirectUse(p.TB.MR.Clone(), p.Test, s.BatchSize)
	t.AddRow("rollback (paper step 6)", fmt.Sprintf("%v", archEqual(p.TB)), report.Pct(accRb),
		report.Pct(atkRb), report.Pct(l.archInferHitRate(p.TB)))
	return t
}

// archInferHitRate runs the architecture-inference attack against a deployed
// model: the attacker reads per-stage transfer sizes from the one-way channel
// of one isolated probe and guesses M_T's layer widths.
func (l *Lab) archInferHitRate(tb *core.TwoBranch) float64 {
	dep := mustDeploy(tb, l.measureDevice())
	views, _, err := seceval.CaptureIsolated(dep, 1, int64(l.cfg.Seed)+84)
	if err != nil {
		panic(err)
	}
	return seceval.AttackViews(views, seceval.SubjectFor(dep)).MeanHitRate
}

// archEqual reports whether the two branches have identical prunable-group
// widths (the architectural fingerprint the attacker would read off M_R).
func archEqual(tb *core.TwoBranch) bool {
	gt := tb.MT.Groups()
	gr := tb.MR.Groups()
	for i := range gt {
		if tb.MT.GroupSize(gt[i]) != tb.MR.GroupSize(gr[i]) {
			return false
		}
	}
	return true
}

// AblationLambda sweeps the sparsity strength λ of Eq. 1 during knowledge
// transfer and reports the accuracy/sparsity trade: larger λ shrinks the BN
// populations (enabling deeper pruning) at some accuracy cost.
func (l *Lab) AblationLambda() *report.Table {
	t := &report.Table{
		Title:  "Ablation: sparsity strength λ in Eq. 1 (VGG18-S/SynthC10)",
		Header: []string{"Lambda", "Transfer Acc.", "mean |gamma| M_R", "mean |gamma| M_T"},
	}
	p := l.Pipeline(Combo{Arch: "vgg", Dataset: "c10"})
	s := l.cfg.Scale
	for _, lambda := range []float64{0, 1e-4, 1e-3, 1e-2} {
		tb := core.NewTwoBranch(p.Victim, l.cfg.Seed+82)
		core.TrainTwoBranch(tb, p.Train, p.Test, l.budget.TrainConfig(s.TransferEpochs, lambda, l.cfg.Seed+83))
		acc := core.EvaluateTwoBranch(tb, p.Test, s.BatchSize)
		t.AddRow(fmt.Sprintf("%.0e", lambda), report.Pct(acc),
			fmt.Sprintf("%.4f", meanAbs(core.BranchGammas(tb.MR))),
			fmt.Sprintf("%.4f", meanAbs(core.BranchGammas(tb.MT))))
	}
	return t
}

// AblationQuant quantifies the Sec. 5.3 efficiency extension: int8
// per-channel weight quantization of the secure branch, comparing TEE
// parameter bytes and benign-user accuracy against the float32 deployment.
func (l *Lab) AblationQuant() *report.Table {
	t := &report.Table{
		Title:  "Ablation: int8 quantization of M_T (VGG18-S/SynthC10)",
		Header: []string{"M_T weights", "TEE param bytes", "TBNet Acc."},
	}
	p := l.Pipeline(Combo{Arch: "vgg", Dataset: "c10"})
	s := l.cfg.Scale

	fp32Bytes := profile.Profile(p.TB.MT, sampleShape()).TotalParamBytes()
	t.AddRow("float32", report.Bytes(fp32Bytes), report.Pct(p.TBAcc))

	qmt := quant.Quantize(p.TB.MT)
	deq := p.TB.Clone()
	deq.MT = quant.Dequantize(qmt)
	acc := core.EvaluateTwoBranch(deq, p.Test, s.BatchSize)
	t.AddRow("int8 (per-channel)", report.Bytes(quant.ParamBytes(qmt)), report.Pct(acc))
	return t
}

func meanAbs(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
