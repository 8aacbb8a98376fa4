package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tbnet"
	"tbnet/internal/core"
	"tbnet/internal/experiments"
	"tbnet/internal/serial"
)

func TestSaveLoadFlagValidation(t *testing.T) {
	cases := [][]string{
		{"save"}, // neither -out nor -registry
		{"save", "-out", "x.tbd", "-registry", "r"}, // both
		{"load"},
		{"load", "-in", "x.tbd", "-registry", "r"},
		{"load", "-in", "x.tbd", "-device", "abacus"},
	}
	for _, args := range cases {
		if code, _, _ := runCLI(t, args...); code != 2 {
			t.Fatalf("%v exited %d, want 2", args, code)
		}
	}
}

func TestScenarioFlagValidation(t *testing.T) {
	cases := [][]string{
		{"scenario", "-spec", "oops"},
		{"scenario", "-spec", "x:squiggle:100:1s"},
		{"scenario", "-spec", "x:uniform:abc:1s"},
		{"scenario", "-spec", "x:uniform:100:notatime"},
		{"scenario", "-spec", "x:burst:100:1s:50"}, // peak below base rate
		{"scenario", "-devices", "abacus:2"},
		{"scenario", "-policy", "vibes"},
		{"scenario", "-models", "m"}, // bare name without -registry
		{"scenario", "-trace", "/nonexistent/trace.txt"},
		// Client mode: a bad -target URL must fail fast as a usage error,
		// before any phase parse or (minutes-long) model build.
		{"scenario", "-target", "://nope"},
		{"scenario", "-target", "ftp://host:21"},
		{"scenario", "-target", "localhost:8080"},                           // scheme-less
		{"scenario", "-target", "http://"},                                  // no host
		{"scenario", "-target", "http://127.0.0.1:1", "-models", "m=x.tbd"}, // conflicting modes
		// Autoscale and sweep misconfigurations fail before any model builds.
		{"scenario", "-pace", "-0.5"},
		{"scenario", "-sweep", "0"},
		{"scenario", "-sweep", "two"},
		{"scenario", "-sweep", " , "},
		{"scenario", "-autoscale", "-autoscale-min", "0"},
		{"scenario", "-autoscale", "-autoscale-min", "4", "-autoscale-max", "2"},
		{"scenario", "-autoscale", "-autoscale-interval", "-1ms"},
		{"scenario", "-target", "http://127.0.0.1:1", "-autoscale"}, // the daemon owns its scaling
		{"scenario", "-target", "http://127.0.0.1:1", "-sweep", "2"},
	}
	for _, args := range cases {
		if code, _, _ := runCLI(t, args...); code != 2 {
			t.Fatalf("%v exited %d, want 2", args, code)
		}
	}
}

// TestSaveLoadServeScenarioEndToEnd walks the whole persistence story at
// micro scale: save two models into a registry, list it, restore one, serve
// both from the store on one server, then drive a short mixed-model scenario
// against a fleet serving them — asserting the JSON artifact carries the
// per-phase latency/shed/throughput rows.
func TestSaveLoadServeScenarioEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("trains micro pipelines")
	}
	reg := t.TempDir()

	// Save two differently-seeded models.
	for i, name := range []string{"prod", "canary"} {
		code, stdout, stderr := runCLI(t,
			"save", "-arch", "tiny-vgg", "-scale", "micro", "-seed", string(rune('1'+i)),
			"-registry", reg, "-name", name, "-json")
		if code != 0 {
			t.Fatalf("save %s exited %d: %s", name, code, stderr)
		}
		var summary struct {
			Name   string `json:"name"`
			SHA256 string `json:"sha256"`
			Device string `json:"device"`
		}
		if err := json.Unmarshal([]byte(stdout), &summary); err != nil {
			t.Fatalf("save JSON: %v\n%s", err, stdout)
		}
		if summary.Name != name || len(summary.SHA256) != 64 || summary.Device != "rpi3" {
			t.Fatalf("save summary = %+v", summary)
		}
	}

	// List the registry.
	code, stdout, stderr := runCLI(t, "load", "-registry", reg, "-json")
	if code != 0 {
		t.Fatalf("list exited %d: %s", code, stderr)
	}
	var entries []struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal([]byte(stdout), &entries); err != nil {
		t.Fatalf("list JSON: %v\n%s", err, stdout)
	}
	if len(entries) != 2 || entries[0].Name != "canary" || entries[1].Name != "prod" {
		t.Fatalf("entries = %+v", entries)
	}

	// Restore one entry, re-targeted onto a different backend.
	code, stdout, stderr = runCLI(t,
		"load", "-registry", reg, "-name", "prod", "-device", "jetson-tz", "-json")
	if code != 0 {
		t.Fatalf("load exited %d: %s", code, stderr)
	}
	var loaded struct {
		Device     string  `json:"device"`
		LatencySec float64 `json:"latency_sec"`
	}
	if err := json.Unmarshal([]byte(stdout), &loaded); err != nil {
		t.Fatalf("load JSON: %v\n%s", err, stdout)
	}
	if loaded.Device != "jetson-tz" || loaded.LatencySec <= 0 {
		t.Fatalf("loaded = %+v", loaded)
	}

	// Serve both models from the store on one multi-tenant server.
	code, stdout, stderr = runCLI(t,
		"serve", "-models", "prod,canary", "-registry", reg,
		"-requests", "24", "-workers", "2", "-json")
	if code != 0 {
		t.Fatalf("serve -models exited %d: %s", code, stderr)
	}
	var served struct {
		Requests int64 `json:"requests"`
		Models   int   `json:"models"`
	}
	if err := json.Unmarshal([]byte(stdout), &served); err != nil {
		t.Fatalf("serve JSON: %v\n%s", err, stdout)
	}
	if served.Requests != 24 || served.Models != 2 {
		t.Fatalf("served = %+v, want 24 requests over 2 models", served)
	}

	// Drive a short mixed-model scenario and check the artifact shape.
	code, stdout, stderr = runCLI(t,
		"scenario", "-models", "prod,canary", "-registry", reg,
		"-devices", "rpi3:1,sgx-desktop:1",
		"-spec", "calm:uniform:150:300ms,spike:burst:150:400ms:600:200ms",
		"-json")
	if code != 0 {
		t.Fatalf("scenario exited %d: %s", code, stderr)
	}
	var artifact struct {
		Scenario struct {
			Offered int `json:"offered"`
			Phases  []struct {
				Name     string  `json:"name"`
				Offered  int     `json:"offered"`
				ShedRate float64 `json:"shed_rate"`
				P50Ms    float64 `json:"p50_ms"`
			} `json:"phases"`
			PerModel []struct {
				Model  string `json:"model"`
				Served int    `json:"served"`
			} `json:"per_model"`
		} `json:"scenario"`
		Fleet struct {
			Devices int `json:"devices"`
			Models  []struct {
				Name string `json:"name"`
			} `json:"models"`
		} `json:"fleet"`
	}
	if err := json.Unmarshal([]byte(stdout), &artifact); err != nil {
		t.Fatalf("scenario JSON: %v\n%s", err, stdout)
	}
	sc := artifact.Scenario
	if sc.Offered == 0 || len(sc.Phases) != 2 || sc.Phases[0].Name != "calm" || sc.Phases[1].Name != "spike" {
		t.Fatalf("scenario artifact = %+v", sc)
	}
	if sc.Phases[0].P50Ms <= 0 {
		t.Fatalf("calm phase carries no latency percentiles: %+v", sc.Phases[0])
	}
	if len(sc.PerModel) != 2 {
		t.Fatalf("per-model rows = %+v", sc.PerModel)
	}
	if artifact.Fleet.Devices != 2 || len(artifact.Fleet.Models) != 2 {
		t.Fatalf("fleet snapshot = %+v", artifact.Fleet)
	}
}

// TestScenarioTraceReplayEndToEnd: a trace file drives a replay phase.
func TestScenarioTraceReplayEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a micro pipeline")
	}
	dir := t.TempDir()
	artifact := filepath.Join(dir, "m.tbd")
	if code, _, stderr := runCLI(t,
		"save", "-arch", "tiny-vgg", "-scale", "micro", "-out", artifact); code != 0 {
		t.Fatalf("save exited %d: %s", code, stderr)
	}
	trace := filepath.Join(dir, "trace.txt")
	if err := os.WriteFile(trace, []byte("0.0\n0.01\n0.02\n0.05\n0.08\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runCLI(t,
		"scenario", "-models", "m="+artifact, "-devices", "rpi3:1", "-trace", trace, "-json")
	if code != 0 {
		t.Fatalf("scenario replay exited %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, `"pattern":"replay"`) {
		t.Fatalf("replay artifact missing replay phase: %s", stdout)
	}
	var out struct {
		Scenario struct {
			Offered int `json:"offered"`
			Served  int `json:"served"`
		} `json:"scenario"`
	}
	if err := json.Unmarshal([]byte(stdout), &out); err != nil {
		t.Fatal(err)
	}
	if out.Scenario.Offered != 5 || out.Scenario.Served != 5 {
		t.Fatalf("replayed %d/%d, want 5/5", out.Scenario.Served, out.Scenario.Offered)
	}
}

// TestSaveArtifactPinned locks the six-step flow bit for bit: the artifact
// `tbnet save -arch tiny-vgg -scale micro -seed 1` writes has the SHA-256
// recorded before the flow moved into internal/core (commit ebc0fed), so any
// change to a seed offset, a preset or the fine-tune rate shows up here.
func TestSaveArtifactPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping pipeline run in short mode")
	}
	const recorded = "15aa5f670227deb3072d93dcbd2b9a9a92323a6ffe0ca5cadcf2d30cef30e9a5"
	code, stdout, stderr := runCLI(t, "save", "-arch", "tiny-vgg", "-scale", "micro",
		"-seed", "1", "-json", "-registry", t.TempDir())
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	var res struct {
		SHA256 string `json:"sha256"`
	}
	if err := json.Unmarshal([]byte(stdout), &res); err != nil {
		t.Fatalf("save -json output not parseable: %v\n%s", err, stdout)
	}
	if res.SHA256 != recorded {
		t.Fatalf("artifact sha256 = %s, recorded %s", res.SHA256, recorded)
	}
}

// TestSourceMatchesLab: the same -arch/-dataset/-scale/-seed means the same
// task everywhere — the finalized model behind the serving commands' model
// source and the one `tbnet experiment` derives its artifacts from serialize
// to the same bytes. (Before the scale presets were written down once, the
// CLI trained a 12-class c100 at the c10 sizes where the lab trained 6.)
func TestSourceMatchesLab(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping pipeline runs in short mode")
	}
	sum := func(tb *tbnet.TwoBranch) string {
		h := sha256.New()
		if err := serial.SaveDeployment(h, &serial.Artifact{TB: tb, Device: "rpi3", SampleShape: []int{1, 3, 16, 16}}); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	micro, _ := core.ScaleByName("micro")
	lab := experiments.NewLab(experiments.Config{Scale: micro, Seed: 1})
	for _, ds := range []string{"c10", "c100"} {
		fs, c := newFlagSet("pipeline", io.Discard)
		if err := fs.Parse([]string{"-arch", "vgg", "-dataset", ds, "-scale", "micro", "-seed", "1"}); err != nil {
			t.Fatal(err)
		}
		src, err := c.source(fs, nil, tbnet.PrecisionF32, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		want := lab.Pipeline(experiments.Combo{Arch: "vgg", Dataset: ds})
		if got := sum(src.res.TB); got != sum(want.TB) {
			t.Fatalf("vgg/%s: CLI model %s… != lab model %s…", ds, got[:12], sum(want.TB)[:12])
		}
		if src.res.Train.Classes != want.Train.Classes || src.res.Train.Len() != want.Train.Len() {
			t.Fatalf("vgg/%s: CLI task %d classes × %d, lab %d × %d", ds,
				src.res.Train.Classes, src.res.Train.Len(), want.Train.Classes, want.Train.Len())
		}
	}
}
