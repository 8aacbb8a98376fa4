package seceval

import (
	"fmt"
	"math/rand"

	"tbnet/internal/attack"
	"tbnet/internal/core"
	"tbnet/internal/defense"
	"tbnet/internal/profile"
	"tbnet/internal/report"
	"tbnet/internal/tee"
	"tbnet/internal/zoo"
)

// TuneConfig parameterizes the defense-placement autotuner.
type TuneConfig struct {
	// Budget is the modeled-latency overhead ceiling a candidate must stay
	// under to be feasible (fraction; default 0.20 = 20%).
	Budget float64
	// Probes is the number of attack probes per candidate (default 4).
	Probes int
	// Seed drives obfuscation randomness.
	Seed int64
	// Chains are the obfuscation candidates (default DefaultChains).
	Chains []*Chain
	// Strategies are the placement candidates (default DefaultStrategies
	// over the victim's depth). Ignored when Victim is nil.
	Strategies []defense.Strategy
	// Victim enables the placement search: the single-branch model whose
	// architecture the placements protect. Nil restricts the search to
	// obfuscation chains on the TBNet deployment.
	Victim *zoo.Model
}

// DefaultChains is the obfuscation candidate set the tuner searches when
// none is given: padding at two granularities, window shuffling, dummy
// injection, and a pad+dummy stack.
func DefaultChains() []*Chain {
	return []*Chain{
		{Layers: []Obfuscator{PadTransfers{Quantum: 1024}}},
		{Layers: []Obfuscator{PadTransfers{Quantum: 4096}}},
		{Layers: []Obfuscator{ShuffleWindow{Window: 8}}},
		{Layers: []Obfuscator{InjectDummies{Rate: 0.5}}},
		{Layers: []Obfuscator{PadTransfers{Quantum: 4096}, InjectDummies{Rate: 0.25}}},
	}
}

// DefaultStrategies is the placement candidate set for a victim with the
// given stage count: full-TEE, every proper DarkneTZ split, and the two
// outsourcing designs.
func DefaultStrategies(stages int) []defense.Strategy {
	out := []defense.Strategy{defense.FullTEE{}}
	for s := 1; s < stages; s++ {
		out = append(out, defense.DarkneTZ{SplitAt: s})
	}
	return append(out, defense.ShadowNet{}, defense.MirrorNet{})
}

// TuneResult is the autotuner's frontier for one device.
type TuneResult struct {
	// Device is the hardware backend searched.
	Device string
	// Budget is the overhead ceiling applied.
	Budget float64
	// Points holds every evaluated candidate, undefended first, with
	// Pareto/Feasible/Best marks filled in.
	Points []report.FrontierPoint
	// Best points at the winning candidate in Points (nil when nothing
	// fits the budget).
	Best *report.FrontierPoint
}

// Autotune searches defense configurations for one deployed model on its
// device: obfuscation chains layered on the TBNet deployment protocol
// (overhead priced against the deployment's own per-run latency) and, when
// cfg.Victim is set, placement strategies with and without each chain
// (overhead priced against undefended normal-world execution of the
// victim). Every candidate is attacked with the architecture-inference
// attack; the result is the hit-rate-vs-overhead frontier and the best
// candidate within the latency budget.
func Autotune(dep *core.Deployment, cfg TuneConfig) (*TuneResult, error) {
	if cfg.Budget <= 0 {
		cfg.Budget = 0.20
	}
	if cfg.Probes < 1 {
		cfg.Probes = 4
	}
	if cfg.Chains == nil {
		cfg.Chains = DefaultChains()
	}
	dev := dep.Device
	res := &TuneResult{Device: dev.Name(), Budget: cfg.Budget}
	subject := SubjectFor(dep)

	// Undefended baseline: the TBNet deployment protocol, ideal attacker.
	views, baseLat, err := CaptureIsolated(dep, cfg.Probes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	base := AttackViews(views, subject)
	res.Points = append(res.Points, report.FrontierPoint{
		Device: dev.Name(), Config: "tbnet", Kind: "undefended",
		HitRate: base.MeanHitRate,
	})

	// Obfuscation chains over the deployment's own traces.
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	for _, ch := range cfg.Chains {
		var obViews [][]tee.Event
		var costSum float64
		for _, v := range views {
			ov, cost, _ := ch.Apply(v, rng)
			obViews = append(obViews, ov)
			costSum += cost.Seconds(dev)
		}
		r := AttackViews(obViews, subject)
		res.Points = append(res.Points, report.FrontierPoint{
			Device: dev.Name(), Config: "tbnet+" + ch.Name(), Kind: "obfuscation",
			HitRate:  r.MeanHitRate,
			Overhead: costSum / float64(len(views)) / baseLat,
		})
	}

	// Placement strategies (and strategy+chain combos) over the victim.
	if cfg.Victim != nil {
		if err := tunePlacements(res, cfg, dev, subject.InShape); err != nil {
			return nil, err
		}
	}

	report.MarkPareto(res.Points)
	for i := range res.Points {
		p := &res.Points[i]
		p.Feasible = p.Kind != "undefended" && p.Overhead <= cfg.Budget
		if !p.Feasible {
			continue
		}
		if res.Best == nil || p.HitRate < res.Best.HitRate ||
			(p.HitRate == res.Best.HitRate && p.Overhead < res.Best.Overhead) {
			res.Best = p
		}
	}
	if res.Best != nil {
		res.Best.Best = true
	}
	return res, nil
}

// tunePlacements appends placement and combo candidates to the result.
// Placement overhead is priced against undefended normal-world execution of
// the victim (the cheapest way to serve it), since a placement replaces the
// whole serving path rather than decorating it.
func tunePlacements(res *TuneResult, cfg TuneConfig, dev tee.Device, inShape []int) error {
	victim := cfg.Victim
	strategies := cfg.Strategies
	if strategies == nil {
		strategies = DefaultStrategies(len(victim.Stages))
	}
	reeOnly := tee.Script{{Kind: tee.EvREECompute, World: tee.REE, Label: victim.Name,
		Flops: profile.Profile(victim, inShape).TotalFlops()}}
	reeBase := reeOnly.Price(dev, 0)
	spatial := attack.StageSpatial(victim, inShape)
	inputBytes := int64(4)
	for _, d := range inShape {
		inputBytes *= int64(d)
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	for _, s := range strategies {
		pl, err := s.Place(victim, tee.Unbounded(dev), inShape)
		if err != nil {
			return fmt.Errorf("seceval: placing %s on %s: %w", s.Name(), dev.Name(), err)
		}
		// Like CaptureIsolated: every probe sees the placement script's
		// view and costs its price, so none runs.
		script := pl.Script()
		plViews := make([][]tee.Event, cfg.Probes)
		for i := range plViews {
			plViews[i] = script.AttackerView()
		}
		plLat := pl.Price()
		// Coverage-adjusted scoring: a placement that exposes only a prefix
		// of the network is credited only for the stages it leaked, so a
		// half-depth DarkneTZ split scores ~50%, not 100% of what it showed.
		score := func(views [][]tee.Event) float64 {
			sum := 0.0
			for _, v := range views {
				g := attack.InferFromExposure(v, spatial, 1, inputBytes)
				hits := 0
				for i, st := range victim.Stages {
					if i < len(g.Widths) && g.Widths[i] == st.OutChannels() {
						hits++
					}
				}
				sum += float64(hits) / float64(len(victim.Stages))
			}
			return sum / float64(len(views))
		}
		res.Points = append(res.Points, report.FrontierPoint{
			Device: dev.Name(), Config: s.Name(), Kind: "placement",
			HitRate:  score(plViews),
			Overhead: plLat/reeBase - 1,
		})
		for _, ch := range cfg.Chains {
			var obViews [][]tee.Event
			var costSum float64
			for _, v := range plViews {
				ov, cost, _ := ch.Apply(v, rng)
				obViews = append(obViews, ov)
				costSum += cost.Seconds(dev)
			}
			res.Points = append(res.Points, report.FrontierPoint{
				Device: dev.Name(), Config: s.Name() + "+" + ch.Name(), Kind: "combo",
				HitRate:  score(obViews),
				Overhead: (plLat+costSum/float64(len(plViews)))/reeBase - 1,
			})
		}
	}
	return nil
}
