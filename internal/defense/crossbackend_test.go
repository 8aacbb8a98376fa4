package defense

import (
	"testing"

	"tbnet/internal/tee"
)

// strategiesFor enumerates every placement strategy for a victim of the
// given depth: full-TEE, every proper DarkneTZ split, and the two
// outsourcing designs.
func strategiesFor(stages int) []Strategy {
	out := []Strategy{FullTEE{}}
	for s := 1; s < stages; s++ {
		out = append(out, DarkneTZ{SplitAt: s})
	}
	return append(out, ShadowNet{}, MirrorNet{})
}

// TestCrossBackendLabelFidelity locks the core functional contract across
// every registered hardware backend: a defense placement rearranges where
// the victim computes, never what it computes, so every strategy's labels
// must be bit-identical to undefended forward inference on every device.
func TestCrossBackendLabelFidelity(t *testing.T) {
	v := victim(31)
	x := sample(4, 32)
	want := argmaxLabels(v.Forward(x.Clone(), false))
	for _, d := range tee.Devices() {
		for _, s := range strategiesFor(len(v.Stages)) {
			p, err := s.Place(v, d, shape)
			if err != nil {
				t.Fatalf("%s on %s: %v", s.Name(), d.Name(), err)
			}
			got := p.Infer(x.Clone())
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s on %s: sample %d label %d != undefended %d",
						s.Name(), d.Name(), i, got[i], want[i])
				}
			}
		}
	}
}

// TestCrossBackendDarkneTZLatencyVsFullTEE locks the latency ordering the
// partitioning argument rests on, per backend: every DarkneTZ split beats
// full-TEE (outsourced stages run at the faster REE rate), and latency is
// monotone non-increasing as the split deepens. The monotone check carries a
// 0.1% tolerance: on switch-dominated backends (sev-server's VM exits) the
// compute saved by one more REE stage can be smaller than the boundary
// payload difference between adjacent splits.
func TestCrossBackendDarkneTZLatencyVsFullTEE(t *testing.T) {
	v := victim(33)
	for _, d := range tee.Devices() {
		full, err := FullTEE{}.Place(v, d, shape)
		if err != nil {
			t.Fatalf("fulltee on %s: %v", d.Name(), err)
		}
		ref := full.Price()
		prev := ref
		for s := 1; s < len(v.Stages); s++ {
			p, err := (DarkneTZ{SplitAt: s}).Place(v, d, shape)
			if err != nil {
				t.Fatalf("split%d on %s: %v", s, d.Name(), err)
			}
			lat := p.Price()
			if lat >= ref {
				t.Fatalf("%s: split%d latency %.9fs not below full-TEE %.9fs",
					d.Name(), s, lat, ref)
			}
			if lat > prev*1.001 {
				t.Fatalf("%s: split%d latency %.9fs regressed past split%d's %.9fs",
					d.Name(), s, lat, s-1, prev)
			}
			prev = lat
		}
	}
}

// TestCrossBackendExposureTraces locks each strategy's attacker-visible
// footprint on every backend: full-TEE leaks no normal-world computation, a
// DarkneTZ split leaks exactly its REE-resident prefix, and the outsourcing
// designs leak every stage.
func TestCrossBackendExposureTraces(t *testing.T) {
	v := victim(35)
	reeStages := func(view []tee.Event) int {
		n := 0
		for _, e := range view {
			if e.Kind == tee.EvREECompute {
				n++
			}
		}
		return n
	}
	for _, d := range tee.Devices() {
		for _, tc := range []struct {
			s    Strategy
			want int
		}{
			{FullTEE{}, 0},
			{DarkneTZ{SplitAt: 1}, 1},
			{DarkneTZ{SplitAt: 2}, 2},
			{ShadowNet{}, len(v.Stages)},
			{MirrorNet{}, len(v.Stages)},
		} {
			p, err := tc.s.Place(v, d, shape)
			if err != nil {
				t.Fatalf("%s on %s: %v", tc.s.Name(), d.Name(), err)
			}
			view := p.Script().AttackerView()
			if got := reeStages(view); got != tc.want {
				t.Fatalf("%s on %s: %d REE-resident stages in attacker view, want %d",
					tc.s.Name(), d.Name(), got, tc.want)
			}
			if _, ok := tc.s.(FullTEE); ok {
				for _, e := range view {
					if e.Kind == tee.EvREEWeightAccess {
						t.Fatalf("%s: full-TEE attacker view leaks a weight access", d.Name())
					}
				}
			}
		}
	}
}
