package experiments

import (
	"fmt"

	"tbnet/internal/attack"
	"tbnet/internal/core"
	"tbnet/internal/defense"
	"tbnet/internal/profile"
	"tbnet/internal/quant"
	"tbnet/internal/report"
	"tbnet/internal/tee"
	"tbnet/internal/zoo"
)

// sampleShape is the per-inference input shape used for deployment sizing.
func sampleShape() []int { return []int{1, 3, 16, 16} }

// mustDeploy places a two-branch model on dev for single-image inference.
// The lab deploys on measurement-mode devices, where placement cannot fail.
func mustDeploy(tb *core.TwoBranch, dev tee.Device) *core.Deployment {
	dep, err := core.Deploy(tb, dev, sampleShape())
	if err != nil {
		panic(err)
	}
	return dep
}

// price is the modeled seconds of one single-image inference on dep.
func price(dep *core.Deployment) float64 {
	lat, _ := dep.ModeledLatency(1) // every deployment serves batch 1
	return lat
}

// versus sets up the paper's comparison for one pipeline on dev — the whole
// victim inside the TEE against the finalized TBNet deployment — and folds
// TBNet's footprint into the table's peak.
func versus(t *report.Table, p *Pipeline, dev tee.Device) (*defense.Placement, *core.Deployment) {
	base, err := defense.FullTEE{}.Place(p.Victim, dev, sampleShape())
	if err != nil {
		panic(err)
	}
	dep := mustDeploy(p.TB, dev)
	if dep.SecureBytes > t.PeakSecureBytes {
		t.PeakSecureBytes = dep.SecureBytes
	}
	return base, dep
}

// baselines lists the Sec. 2.3 prior-art placements a victim is compared
// under: full-TEE, a DarkneTZ split at mid depth, ShadowNet and MirrorNet.
func baselines(victim *zoo.Model) []defense.Strategy {
	return []defense.Strategy{
		defense.FullTEE{},
		defense.DarkneTZ{SplitAt: len(victim.Stages) / 2},
		defense.ShadowNet{},
		defense.MirrorNet{},
	}
}

// Table1 reproduces the paper's Table 1: victim accuracy, TBNet accuracy, the
// direct-use attack accuracy on the extracted M_R, and the accuracy gap.
func (l *Lab) Table1() *report.Table {
	t := &report.Table{
		Title:  "Table 1: TBNet performance and protection against direct model use",
		Header: []string{"Dataset", "DNN", "Victim Acc.", "TBNet Acc.", "Attack Acc.", "Acc. Gap"},
	}
	for _, c := range AllCombos() {
		p := l.Pipeline(c)
		stolen := p.TB.MR.Clone() // everything resident in REE
		atk := attack.DirectUse(stolen, p.Test, l.cfg.Scale.BatchSize)
		t.AddRow(p.Train.Name, p.Victim.Name, report.Pct(p.VictimAcc), report.Pct(p.TBAcc),
			report.Pct(atk), report.Pct(p.TBAcc-atk))
	}
	return t
}

// Fig2 reproduces Fig. 2: the attacker fine-tunes the extracted M_R of the
// VGG victim under varying training-data availability; the TBNet accuracy is
// the horizontal reference line.
func (l *Lab) Fig2() []report.Series {
	var out []report.Series
	for _, ds := range []string{"c10", "c100"} {
		p := l.Pipeline(Combo{Arch: "vgg", Dataset: ds})
		tc := l.budget.TrainConfig(l.cfg.Scale.AttackEpochs, 0, l.cfg.Seed+40)
		curve := attack.Curve(p.TB.MR.Clone(), p.Train, p.Test, l.cfg.Scale.Fractions, tc, l.cfg.Seed+41)
		out = append(out, report.Series{Name: "fine-tuned M_R (" + p.Train.Name + ")", Points: curve})
		ref := make([][2]float64, len(curve))
		for i, pt := range curve {
			ref[i] = [2]float64{pt[0], p.TBAcc}
		}
		out = append(out, report.Series{Name: "TBNet (" + p.Train.Name + ")", Points: ref})
	}
	return out
}

// Table2 reproduces Table 2: the best possible M_T alone (retrained with the
// full training set, no unsecured branch) against TBNet.
func (l *Lab) Table2() *report.Table {
	t := &report.Table{
		Title:  "Table 2: accuracy of the best possible M_T alone vs TBNet (SynthC10)",
		Header: []string{"DNN", "TBNet", "M_T alone", "Acc. Drop"},
	}
	for _, arch := range []string{"vgg", "resnet"} {
		p := l.Pipeline(Combo{Arch: arch, Dataset: "c10"})
		solo := p.TB.MT.Clone()
		tc := l.budget.TrainConfig(l.cfg.Scale.TransferEpochs, 0, l.cfg.Seed+50)
		core.TrainModel(solo, p.Train, nil, tc)
		soloAcc := core.EvaluateModel(solo, p.Test, l.cfg.Scale.BatchSize)
		t.AddRow(p.Victim.Name, report.Pct(p.TBAcc), report.Pct(soloAcc), report.Pct(p.TBAcc-soloAcc))
	}
	return t
}

// Fig3 reproduces Fig. 3: secure-memory usage of the baseline (entire victim
// inside the TEE) vs TBNet (only M_T inside the TEE), with the reduction
// ratio the paper annotates on each bar pair.
func (l *Lab) Fig3() *report.Table {
	t := &report.Table{
		Title:  "Fig. 3: TEE secure-memory usage, baseline (full victim in TEE) vs TBNet",
		Header: []string{"Config", "Baseline", "TBNet", "Reduction"},
	}
	for _, c := range AllCombos() {
		p := l.Pipeline(c)
		base, dep := versus(t, p, l.measureDevice())
		t.AddRow(p.String(), report.Bytes(base.SecureBytes), report.Bytes(dep.SecureBytes),
			report.Ratio(float64(base.SecureBytes)/float64(dep.SecureBytes)))
	}
	t.Device = l.device().Name()
	return t
}

// Table3 reproduces Table 3: per-inference latency of the baseline vs TBNet
// on the configured hardware backend, for the SynthC10 models.
func (l *Lab) Table3() *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("Table 3: inference latency (s) on the simulated %s (SynthC10)",
			l.device().Name()),
		Header: []string{"DNN", "Baseline", "TBNet", "Reduction"},
		Device: l.device().Name(),
	}
	for _, arch := range []string{"vgg", "resnet"} {
		p := l.Pipeline(Combo{Arch: arch, Dataset: "c10"})
		base, dep := versus(t, p, l.measureDevice())
		baseLat, tbLat := base.Price(), price(dep)
		t.AddRow(p.Victim.Name, fmt.Sprintf("%.4f", baseLat), fmt.Sprintf("%.4f", tbLat),
			report.Ratio(baseLat/tbLat))
	}
	return t
}

// Fig4 reproduces Fig. 4: the distributions of BN scale weights in M_R and
// M_T after knowledge transfer (before pruning), for the VGG/SynthC10
// configuration.
func (l *Lab) Fig4() (mr, mt *report.Histogram) {
	p := l.Pipeline(Combo{Arch: "vgg", Dataset: "c10"})
	const bins = 12
	mr = report.NewHistogram(core.BranchGammas(p.PostTransfer.MR), bins)
	mt = report.NewHistogram(core.BranchGammas(p.PostTransfer.MT), bins)
	return mr, mt
}

// Ablation makes the paper's Sec. 2.3 prior-art comparison executable: every
// defense strategy deployed on the same victim, reporting secure footprint,
// REE exposure, and modeled latency.
func (l *Lab) Ablation() *report.Table {
	t := &report.Table{
		Title:  "Ablation: deployment strategies on the VGG18-S/SynthC10 victim",
		Header: []string{"Strategy", "Secure Mem", "Exposed Params", "Arch Exposed", "Latency (s)"},
		Device: l.device().Name(),
	}
	p := l.Pipeline(Combo{Arch: "vgg", Dataset: "c10"})
	for _, s := range baselines(p.Victim) {
		pl, err := s.Place(p.Victim, l.measureDevice(), sampleShape())
		if err != nil {
			panic(err)
		}
		t.AddRow(s.Name(), report.Bytes(pl.SecureBytes), report.Bytes(pl.ExposedParamBytes),
			fmt.Sprintf("%v", pl.ExposedArch), fmt.Sprintf("%.4f", pl.Price()))
	}
	// TBNet row: exposure is M_R's parameters; architecture of M_T hidden.
	dep := mustDeploy(p.TB, l.measureDevice())
	mrBytes := profile.Profile(p.TB.MR, sampleShape()).TotalParamBytes()
	t.AddRow("tbnet", report.Bytes(dep.SecureBytes), report.Bytes(mrBytes),
		"false (M_T hidden, M_R ≠ M_T)", fmt.Sprintf("%.4f", price(dep)))
	t.PeakSecureBytes = dep.SecureBytes
	return t
}

// TableHW extends the paper's hardware-efficiency story across every
// registered backend: the same finalized VGG/SynthC10 model deployed on each
// device, comparing the full-TEE baseline against TBNet under each backend's
// own cost semantics (serialized TrustZone worlds, SGX EPC paging, SEV VM
// exits, heterogeneous overlap). Latency is measured in each backend's
// measurement mode so footprints that exceed a device's secure memory are
// reported in the Fits column instead of aborting the table.
func (l *Lab) TableHW() *report.Table {
	t := &report.Table{
		Title: "HW table: baseline vs TBNet per registered device (VGG18-S/SynthC10)",
		Header: []string{"Device", "Secure Mem", "TBNet Mem", "Fits",
			"Baseline (s)", "TBNet (s)", "Reduction"},
		Device: "all",
	}
	p := l.Pipeline(Combo{Arch: "vgg", Dataset: "c10"})
	for _, dev := range tee.Devices() {
		base, dep := versus(t, p, tee.Unbounded(dev))
		fits := "yes"
		if cap := dev.SecureMemBytes(); cap > 0 && dep.SecureBytes > cap {
			fits = "no"
		}
		baseLat, tbLat := base.Price(), price(dep)
		t.AddRow(dev.Name(), report.Bytes(dev.SecureMemBytes()), report.Bytes(dep.SecureBytes),
			fits, fmt.Sprintf("%.6f", baseLat), fmt.Sprintf("%.6f", tbLat),
			report.Ratio(baseLat/tbLat))
	}
	return t
}

// TableQuant is the accuracy-vs-latency story of int8 quantized serving: the
// same finalized VGG/SynthC10 model deployed at float32 and int8 on every
// registered backend. Each device contributes two rows — the f32 reference
// and the quantized deployment — comparing secure footprint, modeled
// per-image latency, the f32→int8 speedup under the backend's own int8
// throughput ratio, and the benign-user accuracy of each serving path
// (accuracy is device-independent: the arithmetic is identical everywhere,
// only the cost model changes). Devices run in measurement mode so oversized
// footprints report instead of aborting.
func (l *Lab) TableQuant() *report.Table {
	t := &report.Table{
		Title: "Quant table: f32 vs int8 serving per registered device (VGG18-S/SynthC10)",
		Header: []string{"Device", "Precision", "Secure Mem", "Latency (s)",
			"Speedup", "TBNet Acc."},
		Device: "all",
	}
	p := l.Pipeline(Combo{Arch: "vgg", Dataset: "c10"})
	s := l.cfg.Scale

	// Quantize once; every device deploys the same immutable armed models.
	qmr, qmt := quant.Quantize(p.TB.MR), quant.Quantize(p.TB.MT)
	qtb := &core.TwoBranch{MR: qmr.Model, MT: qmt.Model, Align: p.TB.Align, Finalized: true}
	i8Acc := core.EvaluateTwoBranch(qtb, p.Test, s.BatchSize)

	for _, dev := range tee.Devices() {
		f32 := mustDeploy(p.TB, tee.Unbounded(dev))
		i8, err := core.DeployQuantized(qmr, qmt, p.TB.Align, tee.Unbounded(dev), sampleShape())
		if err != nil {
			panic(err)
		}
		if i8.SecureBytes > t.PeakSecureBytes {
			t.PeakSecureBytes = i8.SecureBytes
		}
		f32Lat, i8Lat := price(f32), price(i8)
		t.AddRow(dev.Name(), "f32", report.Bytes(f32.SecureBytes),
			fmt.Sprintf("%.6f", f32Lat), report.Ratio(1), report.Pct(p.TBAcc))
		t.AddRow(dev.Name(), "int8", report.Bytes(i8.SecureBytes),
			fmt.Sprintf("%.6f", i8Lat), report.Ratio(f32Lat/i8Lat), report.Pct(i8Acc))
	}
	return t
}
