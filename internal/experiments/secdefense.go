package experiments

import (
	"tbnet/internal/report"
	"tbnet/internal/seceval"
	"tbnet/internal/tee"
)

// secDefenseBudget is the modeled-latency overhead ceiling the autotuner
// applies per device (the acceptance bar of the security evaluation).
const secDefenseBudget = 0.20

// TableSecDefense runs the defense-placement autotuner on every registered
// backend and merges the per-device attack-success-vs-overhead frontiers
// into one artifact (`tbnet experiment secdefense`).
//
// The undefended subject is the two-branch model as it stands after
// knowledge transfer but before pruning: both branches still share the
// victim's widths, so the transfer payload sizes hand the attacker M_T's
// architecture verbatim (hit rate 1). Each device then gets the tuner's
// candidates — obfuscation chains over the TBNet deployment protocol,
// defense placements of the victim, and placement+chain combos — plus a
// "tbnet-rollback" row measuring the paper's own finalization defense with
// the same attack, priced against the undefended deployment's latency.
func (l *Lab) TableSecDefense() *report.Table {
	t := &report.Table{
		Title: "SecDefense: attack hit-rate vs modeled-latency overhead per registered device (VGG18-S/SynthC10)",
		Header: []string{"Device", "Config", "Kind", "Hit Rate", "Overhead",
			"In Budget", "Pareto", "Best"},
		Device: "all",
	}
	p := l.Pipeline(Combo{Arch: "vgg", Dataset: "c10"})
	undef := p.PostTransfer.Clone()
	undef.Finalized = true
	const probes = 2
	chains := []*seceval.Chain{
		{Layers: []seceval.Obfuscator{seceval.PadTransfers{Quantum: 4096}}},
		{Layers: []seceval.Obfuscator{seceval.ShuffleWindow{Window: 8}}},
		{Layers: []seceval.Obfuscator{seceval.InjectDummies{Rate: 0.5}}},
	}
	yes := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}
	mark := func(b bool) string {
		if b {
			return "*"
		}
		return ""
	}
	for _, dev := range tee.Devices() {
		dep := mustDeploy(undef, tee.Unbounded(dev))
		if dep.SecureBytes > t.PeakSecureBytes {
			t.PeakSecureBytes = dep.SecureBytes
		}
		res, err := seceval.Autotune(dep, seceval.TuneConfig{
			Budget: secDefenseBudget, Probes: probes, Seed: int64(l.cfg.Seed) + 80,
			Chains: chains, Strategies: baselines(p.Victim), Victim: p.Victim,
		})
		if err != nil {
			panic(err)
		}
		for _, pt := range res.Points {
			t.AddRow(dev.Name(), pt.Config, pt.Kind, report.Pct(pt.HitRate),
				report.Pct(pt.Overhead), yes(pt.Feasible), mark(pt.Pareto), mark(pt.Best))
		}
		// The paper's own defense, measured with the same attack: the
		// finalized (rolled-back) deployment, priced against the undefended
		// deployment's per-run latency.
		final := mustDeploy(p.TB, tee.Unbounded(dev))
		_, undefLat, err := seceval.CaptureIsolated(dep, probes, int64(l.cfg.Seed)+81)
		if err != nil {
			panic(err)
		}
		views, finalLat, err := seceval.CaptureIsolated(final, probes, int64(l.cfg.Seed)+82)
		if err != nil {
			panic(err)
		}
		r := seceval.AttackViews(views, seceval.SubjectFor(final))
		overhead := finalLat/undefLat - 1
		t.AddRow(dev.Name(), "tbnet-rollback", "rollback", report.Pct(r.MeanHitRate),
			report.Pct(overhead), yes(overhead <= secDefenseBudget), "", "")
	}
	return t
}
