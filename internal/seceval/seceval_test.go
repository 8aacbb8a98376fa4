package seceval

import (
	"math/rand"
	"testing"

	"tbnet/internal/core"
	"tbnet/internal/tee"
	"tbnet/internal/tensor"
	"tbnet/internal/zoo"
)

// testVictim builds the untrained tiny victim the security fixtures share:
// attack geometry depends on architecture and the staged protocol, not on
// learned weights.
func testVictim(seed uint64) *zoo.Model {
	return zoo.BuildVGG(zoo.TinyVGGConfig(4), tensor.NewRNG(seed))
}

// testDeployment deploys a finalized two-branch model without the training
// pipeline. No rollback finalization has run, so M_R and M_T share widths —
// the regime where the isolated attack recovers the architecture exactly
// (hit rate 1.0), giving the defenses a worst case to be measured against.
func testDeployment(t testing.TB, dev tee.Device, seed uint64) *core.Deployment {
	t.Helper()
	tb := core.NewTwoBranch(testVictim(seed), seed+1)
	tb.Finalized = true
	dep, err := core.Deploy(tb, dev, []int{1, 3, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

func TestParseChain(t *testing.T) {
	for spec, name := range map[string]string{
		"":                         "none",
		"none":                     "none",
		"pad:1024":                 "pad:1024",
		"pad:4096,dummy:0.25":      "pad:4096+dummy:0.25",
		" pad:512 , shuffle:8 ":    "pad:512+shuffle:8",
		"pad:64,shuffle:4,dummy:1": "pad:64+shuffle:4+dummy:1",
	} {
		ch, err := ParseChain(spec)
		if err != nil {
			t.Fatalf("ParseChain(%q): %v", spec, err)
		}
		if ch.Name() != name {
			t.Fatalf("ParseChain(%q).Name() = %q, want %q", spec, ch.Name(), name)
		}
	}
	for _, spec := range []string{
		"pad:0", "pad:-1", "pad:x", "shuffle:1", "shuffle:", "dummy:1.5",
		"dummy:-0.1", "blur:3", "pad", "pad:4096,,dummy:0.5",
	} {
		if _, err := ParseChain(spec); err == nil {
			t.Fatalf("ParseChain(%q) accepted an invalid spec", spec)
		}
	}
}

// TestPadTransfersQuantumRule locks the padding rule: every payload grows
// past the next quantum boundary, so an already-aligned payload gains a full
// extra quantum and no true size ever survives.
func TestPadTransfersQuantumRule(t *testing.T) {
	p := PadTransfers{Quantum: 1024}
	view := []tee.Event{
		{Kind: tee.EvTransfer, Bytes: 1000},  // unaligned: → 1024
		{Kind: tee.EvTransfer, Bytes: 1024},  // aligned: → 2048, not left as-is
		{Kind: tee.EvSMC},                    // untouched
		{Kind: tee.EvREECompute, Bytes: 777}, // not a transfer: untouched
	}
	out, cost := p.Apply(view, nil)
	want := []int64{1024, 2048, 0, 777}
	for i, w := range want {
		if out[i].Bytes != w {
			t.Fatalf("event %d padded to %d, want %d", i, out[i].Bytes, w)
		}
	}
	if view[0].Bytes != 1000 || view[1].Bytes != 1024 {
		t.Fatal("Apply mutated the input view")
	}
	const delta = (1024 - 1000) + (2048 - 1024)
	if cost.PaddedBytes != delta || cost.TransferBytes != delta || cost.REEFlops != delta {
		t.Fatalf("cost = %+v, want %d padded/transfer bytes and flops", cost, delta)
	}
	if cost.Seconds(tee.RaspberryPi3()) <= 0 {
		t.Fatal("padding must cost modeled device time")
	}
}

func TestShuffleAndDummyPreserveAndCost(t *testing.T) {
	view := []tee.Event{
		{Kind: tee.EvSMC, Label: "input"},
		{Kind: tee.EvTransfer, Label: "input", Bytes: 3072},
		{Kind: tee.EvREECompute, Bytes: 16384},
		{Kind: tee.EvTransfer, Bytes: 16384},
		{Kind: tee.EvTransfer, Bytes: 8192},
	}
	rng := rand.New(rand.NewSource(5))
	out, cost := (ShuffleWindow{Window: 2}).Apply(view, rng)
	if len(out) != len(view) {
		t.Fatalf("shuffle changed the event count: %d != %d", len(out), len(view))
	}
	if cost.Switches != 3 { // ceil(5/2) windows
		t.Fatalf("shuffle switches = %d, want one per window (3)", cost.Switches)
	}
	out, cost = (InjectDummies{Rate: 1}).Apply(view, rng)
	if cost.InjectedEvents == 0 || len(out) != len(view)+cost.InjectedEvents {
		t.Fatalf("dummy injection accounting: %d events from %d, cost %+v",
			len(out), len(view), cost)
	}
	// At rate 1 every real transfer spawns one SMC+transfer decoy pair.
	if cost.InjectedEvents != 6 || cost.Switches != 3 {
		t.Fatalf("rate-1 injection on 3 transfers: %+v", cost)
	}
}

func TestSegmentRuns(t *testing.T) {
	in := func() tee.Event { return tee.Event{Kind: tee.EvSMC, Label: "input"} }
	ev := func(b int64) tee.Event { return tee.Event{Kind: tee.EvTransfer, Bytes: b} }
	segs := SegmentRuns([]tee.Event{
		ev(1), // tail of a run already in flight
		in(), ev(2), ev(3),
		in(),
		in(), ev(4),
	})
	wantLens := []int{1, 3, 1, 2}
	if len(segs) != len(wantLens) {
		t.Fatalf("%d segments, want %d", len(segs), len(wantLens))
	}
	for i, n := range wantLens {
		if len(segs[i]) != n {
			t.Fatalf("segment %d has %d events, want %d", i, len(segs[i]), n)
		}
	}
	if segs := SegmentRuns(nil); segs != nil {
		t.Fatalf("empty stream must segment to nothing, got %d", len(segs))
	}
}

func TestTapRecordsFiltersAndLimit(t *testing.T) {
	tap := NewTap(WithRunLimit(2))
	dev := tee.RaspberryPi3()
	view := []tee.Event{{Kind: tee.EvTransfer, Bytes: 4096}}
	tap.TapRun("node-a", dev, "default", 3, view)
	tap.TapRun("node-b", dev, "tenant-b", 2, view)
	tap.TapRun("node-a", dev, "default", 1, view) // beyond the limit: dropped
	if got := len(tap.Runs()); got != 2 {
		t.Fatalf("retained %d runs, want limit 2", got)
	}
	if tap.TotalRuns() != 3 {
		t.Fatalf("TotalRuns = %d, want 3 (drops counted)", tap.TotalRuns())
	}
	if tap.TotalBatch() != 5 {
		t.Fatalf("TotalBatch = %d, want 5 over retained runs", tap.TotalBatch())
	}
	if v := tap.RunViews("node-a", "default"); len(v) != 1 {
		t.Fatalf("node-a/default views = %d, want 1", len(v))
	}
	if v := tap.RunViews("", ""); len(v) != 2 {
		t.Fatalf("wildcard views = %d, want 2", len(v))
	}
	if nv := tap.NodeView("node-a"); len(nv) != 1 {
		t.Fatalf("node-a concatenated view = %d events, want 1", len(nv))
	}
	if tap.OverheadSeconds() != 0 {
		t.Fatal("no chain configured, overhead must be zero")
	}
}

func TestTapChargesObfuscationOverhead(t *testing.T) {
	ch, err := ParseChain("pad:4096,dummy:1")
	if err != nil {
		t.Fatal(err)
	}
	tap := NewTap(WithObfuscation(ch), WithSeed(9))
	dev := tee.RaspberryPi3()
	view := []tee.Event{
		{Kind: tee.EvSMC, Label: "input"},
		{Kind: tee.EvTransfer, Label: "input", Bytes: 3072},
		{Kind: tee.EvTransfer, Bytes: 16384},
	}
	ov := tap.TapRun("n", dev, "default", 1, view)
	if ov <= 0 {
		t.Fatal("padding a run must return positive overhead")
	}
	if got := tap.OverheadSeconds(); got != ov {
		t.Fatalf("OverheadSeconds = %v, want the %v just charged", got, ov)
	}
	stats := tap.OverheadStats()
	if len(stats) != 2 || stats[0].Layer != "pad:4096" || stats[1].Layer != "dummy:1" {
		t.Fatalf("per-layer stats = %+v", stats)
	}
	if stats[0].PaddedBytes == 0 || stats[1].InjectedEvents == 0 {
		t.Fatalf("layer spend not attributed: %+v", stats)
	}
	rec := tap.Runs()[0]
	if rec.OverheadSeconds != ov {
		t.Fatalf("record overhead %v != charged %v", rec.OverheadSeconds, ov)
	}
	// The recorded view is the obfuscated one: no payload below the quantum.
	for _, e := range rec.Events {
		if e.Kind == tee.EvTransfer && e.Bytes%4096 != 0 {
			t.Fatalf("recorded transfer of %d bytes escaped the 4096 quantum", e.Bytes)
		}
	}
}

// TestAutotuneFrontierMeetsBudget is the acceptance lock for the frontier:
// on every backend of the mixed fleet, the tuner must find at least one
// defense combo that cuts the architecture-inference hit rate by ≥50%
// against the undefended deployment while staying within the 20%
// modeled-latency budget.
func TestAutotuneFrontierMeetsBudget(t *testing.T) {
	for _, name := range []string{"rpi3", "sgx-desktop", "sev-server", "jetson-tz"} {
		dev, err := tee.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		dep := testDeployment(t, tee.Unbounded(dev), 41)
		res, err := Autotune(dep, TuneConfig{
			Budget: 0.20,
			Probes: 2,
			Seed:   7,
			Chains: []*Chain{
				{Layers: []Obfuscator{PadTransfers{Quantum: 4096}}},
				{Layers: []Obfuscator{InjectDummies{Rate: 0.5}}},
			},
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		undef := res.Points[0]
		if undef.Kind != "undefended" {
			t.Fatalf("%s: first point is %q, want the undefended baseline", name, undef.Kind)
		}
		if undef.HitRate != 1.0 {
			t.Fatalf("%s: undefended hit rate %v, want 1.0 pre-rollback", name, undef.HitRate)
		}
		if res.Best == nil {
			t.Fatalf("%s: no candidate within the %.0f%% budget", name, res.Budget*100)
		}
		if res.Best.HitRate > 0.5*undef.HitRate {
			t.Fatalf("%s: best candidate %q only cuts hit rate to %v (undefended %v), want ≥50%% reduction",
				name, res.Best.Config, res.Best.HitRate, undef.HitRate)
		}
		if res.Best.Overhead > res.Budget {
			t.Fatalf("%s: best candidate %q overhead %v exceeds budget %v",
				name, res.Best.Config, res.Best.Overhead, res.Budget)
		}
		if !res.Best.Feasible || !res.Best.Best {
			t.Fatalf("%s: best candidate marks = %+v", name, *res.Best)
		}
	}
}

// TestAutotunePlacementSearch exercises the placement half of the tuner: a
// victim enables strategy and combo candidates, full-TEE leaks nothing, and
// the coverage-adjusted DarkneTZ score tracks its exposed prefix.
func TestAutotunePlacementSearch(t *testing.T) {
	victim := testVictim(51)
	dev := tee.Unbounded(tee.RaspberryPi3())
	dep := testDeployment(t, dev, 51)
	res, err := Autotune(dep, TuneConfig{
		Probes: 2,
		Seed:   11,
		Chains: []*Chain{{Layers: []Obfuscator{PadTransfers{Quantum: 4096}}}},
		Victim: victim,
	})
	if err != nil {
		t.Fatal(err)
	}
	byConfig := map[string]float64{}
	kinds := map[string]int{}
	for _, p := range res.Points {
		byConfig[p.Config] = p.HitRate
		kinds[p.Kind]++
	}
	for _, k := range []string{"undefended", "obfuscation", "placement", "combo"} {
		if kinds[k] == 0 {
			t.Fatalf("no %q candidates in the frontier: %v", k, kinds)
		}
	}
	if hr, ok := byConfig["full-tee"]; !ok || hr != 0 {
		t.Fatalf("full-TEE placement hit rate = %v, want 0 (nothing leaks)", hr)
	}
	n := float64(len(victim.Stages))
	if hr := byConfig["darknetz-split1"]; hr <= 0 || hr > 1.0/n+1e-9 {
		t.Fatalf("darknetz-split1 coverage-adjusted hit rate = %v, want (0, %v]", hr, 1.0/n)
	}
	if byConfig["mirrornet"] <= byConfig["darknetz-split1"] {
		t.Fatalf("mirrornet (%v) must leak more than a 1-stage split (%v)",
			byConfig["mirrornet"], byConfig["darknetz-split1"])
	}
}
