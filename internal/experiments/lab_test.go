package experiments

import (
	"fmt"
	"strings"
	"testing"

	"tbnet/internal/tee"
)

var sharedLab *Lab

// skipShort keeps the pipeline-training tests out of CI's race-mode smoke
// run: under the race detector the memoized micro pipelines exceed the
// default per-package test timeout. The full (non-race) CI step still runs
// them.
func skipShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("experiments pipelines skipped in short mode")
	}
}

// microLab returns a process-wide shared lab so the expensive pipelines are
// trained once and reused by every test (they only read from it).
func microLab() *Lab {
	if sharedLab == nil {
		sharedLab = NewLab(Config{Scale: MicroScale(), Seed: 1})
	}
	return sharedLab
}

func TestPipelineMemoized(t *testing.T) {
	skipShort(t)
	l := microLab()
	c := Combo{Arch: "vgg", Dataset: "c10"}
	p1 := l.Pipeline(c)
	p2 := l.Pipeline(c)
	if p1 != p2 {
		t.Fatal("pipeline must be memoized per combo")
	}
	if !p1.TB.Finalized {
		t.Fatal("pipeline must deliver a finalized model")
	}
	if p1.PostTransfer.Finalized {
		t.Fatal("post-transfer snapshot must predate finalization")
	}
}

func TestPipelineResNet(t *testing.T) {
	skipShort(t)
	l := microLab()
	p := l.Pipeline(Combo{Arch: "resnet", Dataset: "c10"})
	if p.Victim.Arch != "resnet" {
		t.Fatalf("arch = %s", p.Victim.Arch)
	}
	if p.TBAcc < 0 || p.TBAcc > 1 {
		t.Fatalf("accuracy %v out of range", p.TBAcc)
	}
}

func TestTable1Shape(t *testing.T) {
	skipShort(t)
	l := microLab()
	tab := l.Table1()
	if len(tab.Rows) != 4 {
		t.Fatalf("table 1 has %d rows, want 4", len(tab.Rows))
	}
	out := tab.String()
	for _, want := range []string{"VGG18-S", "ResNet20-S", "SynthC10", "SynthC100"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestFig2SeriesCount(t *testing.T) {
	skipShort(t)
	l := microLab()
	series := l.Fig2()
	// Two datasets × (attack curve + TBNet reference line).
	if len(series) != 4 {
		t.Fatalf("fig 2 has %d series, want 4", len(series))
	}
	for _, s := range series {
		if len(s.Points) != 2 {
			t.Fatalf("series %q has %d points, want 2", s.Name, len(s.Points))
		}
	}
}

func TestTable2And3AndFig3(t *testing.T) {
	skipShort(t)
	l := microLab()
	if rows := len(l.Table2().Rows); rows != 2 {
		t.Fatalf("table 2 rows = %d, want 2", rows)
	}
	if rows := len(l.Table3().Rows); rows != 2 {
		t.Fatalf("table 3 rows = %d, want 2", rows)
	}
	fig3 := l.Fig3()
	if rows := len(fig3.Rows); rows != 4 {
		t.Fatalf("fig 3 rows = %d, want 4", rows)
	}
	// TBNet's secure footprint must beat the baseline in every config.
	for _, r := range fig3.Rows {
		ratio := r[3]
		if strings.HasPrefix(ratio, "0.") {
			t.Fatalf("fig 3 reduction %s < 1x in row %v", ratio, r)
		}
	}
}

func TestFig4Histograms(t *testing.T) {
	skipShort(t)
	l := microLab()
	mr, mt := l.Fig4()
	if mr.N == 0 || mt.N == 0 {
		t.Fatal("histograms must not be empty")
	}
	if mr.N != mt.N {
		// Before rollback the branches have identical widths, so the gamma
		// populations match.
		t.Fatalf("gamma counts differ: %d vs %d", mr.N, mt.N)
	}
}

func TestAblationIncludesAllStrategies(t *testing.T) {
	skipShort(t)
	l := microLab()
	out := l.Ablation().String()
	for _, want := range []string{"full-tee", "darknetz", "shadownet", "mirrornet", "tbnet"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablation missing %q:\n%s", want, out)
		}
	}
}

func TestRunAllProducesAllArtifacts(t *testing.T) {
	skipShort(t)
	l := microLab()
	var b strings.Builder
	l.RunAll(&b)
	out := b.String()
	for _, want := range []string{"Table 1", "Fig. 2", "Table 2", "Fig. 3", "Table 3", "Fig. 4",
		"Ablation", "HW table", "Quant table", "Fleet: routing policies", "SecDefense",
		"Ablation: composite vs secure-only", "Ablation: rollback finalization",
		"Ablation: sparsity strength", "Ablation: int8 quantization"} {
		if !strings.Contains(out, want) {
			t.Fatalf("RunAll output missing %q", want)
		}
	}
}

// TestTableQuantBeatsF32Everywhere: the quant table carries an f32 and an
// int8 row per registered device, and every backend's int8 latency is
// strictly below its f32 latency — the artifact-level echo of the
// core-locked acceptance criterion.
func TestTableQuantBeatsF32Everywhere(t *testing.T) {
	skipShort(t)
	l := microLab()
	tab := l.TableQuant()
	devs := tee.Devices()
	if len(tab.Rows) != 2*len(devs) {
		t.Fatalf("quant rows = %d, want two per registered device (%d)", len(tab.Rows), len(devs))
	}
	for i, dev := range devs {
		f32Row, i8Row := tab.Rows[2*i], tab.Rows[2*i+1]
		if f32Row[0] != dev.Name() || i8Row[0] != dev.Name() {
			t.Fatalf("rows %d/%d name %q/%q, want %q", 2*i, 2*i+1, f32Row[0], i8Row[0], dev.Name())
		}
		if f32Row[1] != "f32" || i8Row[1] != "int8" {
			t.Fatalf("%s precision cells %q/%q", dev.Name(), f32Row[1], i8Row[1])
		}
		var f32Lat, i8Lat float64
		if _, err := fmt.Sscanf(f32Row[3], "%f", &f32Lat); err != nil {
			t.Fatal(err)
		}
		if _, err := fmt.Sscanf(i8Row[3], "%f", &i8Lat); err != nil {
			t.Fatal(err)
		}
		if i8Lat >= f32Lat {
			t.Fatalf("%s: int8 latency %g not below f32 %g", dev.Name(), i8Lat, f32Lat)
		}
	}
}

// TestTableHWCoversRegistry: the hardware table has one row per registered
// device, and the backends price the same model differently.
func TestTableHWCoversRegistry(t *testing.T) {
	skipShort(t)
	l := microLab()
	hw := l.TableHW()
	devs := tee.Devices()
	if len(hw.Rows) != len(devs) {
		t.Fatalf("hw rows = %d, want one per registered device (%d)", len(hw.Rows), len(devs))
	}
	lat := map[string]bool{}
	for i, r := range hw.Rows {
		if r[0] != devs[i].Name() {
			t.Fatalf("row %d device %q, want %q", i, r[0], devs[i].Name())
		}
		if lat[r[5]] {
			t.Fatalf("duplicate TBNet latency %q across devices", r[5])
		}
		lat[r[5]] = true
	}
	if hw.Device != "all" || hw.PeakSecureBytes <= 0 {
		t.Fatalf("hw table attribution wrong: device=%q peak=%d", hw.Device, hw.PeakSecureBytes)
	}
}

// TestLabHonoursConfiguredDevice: a lab configured for a different backend
// prices Table 3 differently than the rpi3 default — the whole point of the
// Device axis.
func TestLabHonoursConfiguredDevice(t *testing.T) {
	skipShort(t)
	base := microLab()
	jl := NewLab(Config{Scale: MicroScale(), Seed: 1, Device: tee.JetsonTZ()})
	// Reuse the trained pipelines so only the device changes.
	jl.cache = base.cache
	jt := jl.Table3()
	rt := base.Table3()
	if jt.Device != "jetson-tz" || rt.Device != "rpi3" {
		t.Fatalf("table device attribution: %q vs %q", jt.Device, rt.Device)
	}
	if jt.Rows[0][2] == rt.Rows[0][2] {
		t.Fatalf("jetson-tz and rpi3 price TBNet identically: %q", jt.Rows[0][2])
	}
}

// TestCatalogLookup: names are unique, every entry is found under its own
// name, and a name outside the catalog is not. No training involved.
func TestCatalogLookup(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Catalog() {
		if seen[e.Name] {
			t.Fatalf("catalog lists %q twice", e.Name)
		}
		seen[e.Name] = true
		if got, ok := Lookup(e.Name); !ok || got.Name != e.Name || got.Render == nil {
			t.Fatalf("Lookup(%q) = %+v, %v", e.Name, got, ok)
		}
	}
	for _, name := range []string{"all", "table9", ""} {
		if _, ok := Lookup(name); ok {
			t.Fatalf("Lookup(%q) found an entry", name)
		}
	}
}
