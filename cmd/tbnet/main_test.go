package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tbnet"
	"tbnet/internal/cliconf/cliconftest"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestNoArgsPrintsUsage(t *testing.T) {
	code, _, stderr := runCLI(t)
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "usage:") {
		t.Fatalf("stderr missing usage: %q", stderr)
	}
}

func TestUnknownCommand(t *testing.T) {
	code, _, stderr := runCLI(t, "frobnicate")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "unknown command") {
		t.Fatalf("stderr = %q", stderr)
	}
}

func TestInfoCommand(t *testing.T) {
	code, stdout, _ := runCLI(t, "info")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, want := range []string{"rpi3", "sgx-desktop", "sev-server", "jetson-tz",
		"REE throughput", "secure memory"} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("info output missing %q:\n%s", want, stdout)
		}
	}
}

// TestUnknownDeviceRejected: every workload command validates -device against
// the registry and teaches the caller the known names.
func TestUnknownDeviceRejected(t *testing.T) {
	for _, args := range [][]string{
		{"pipeline", "-device", "abacus"},
		{"serve", "-device", "abacus"},
		{"fleet", "-device", "abacus"},
		{"experiment", "table3", "-device", "abacus"},
	} {
		code, _, stderr := runCLI(t, args...)
		if code != 2 {
			t.Fatalf("%v: exit = %d, want 2", args, code)
		}
		if !strings.Contains(stderr, "rpi3") {
			t.Fatalf("%v: stderr %q does not list registered devices", args, stderr)
		}
	}
}

func TestExperimentValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		// stderr lists what the rejection must name.
		stderr []string
	}{
		{"missing name", []string{"experiment"}, []string{"usage:"}},
		{"unknown name", []string{"experiment", "table9"}, append([]string{`"table9"`, "all"}, experimentNames()...)},
		{"unknown name after flags parse", []string{"experiment", "ablation-quantum", "-scale", "micro"}, experimentNames()},
		{"bad scale", []string{"experiment", "table1", "-scale", "galactic"}, []string{"micro, ci, or full"}},
		{"bad flag", []string{"experiment", "table1", "-bogus"}, nil},
		{"json all", []string{"experiment", "all", "-json"}, []string{"per-artifact"}},
	}
	for _, c := range cases {
		code, _, stderr := runCLI(t, c.args...)
		if code != 2 {
			t.Fatalf("%s: exit = %d, want 2", c.name, code)
		}
		for _, want := range c.stderr {
			if !strings.Contains(stderr, want) {
				t.Fatalf("%s: stderr does not name %q:\n%s", c.name, want, stderr)
			}
		}
	}
}

// TestUsageListsCatalog: the synopsis names exactly the catalog's entries,
// in catalog order, after "all".
func TestUsageListsCatalog(t *testing.T) {
	_, _, stderr := runCLI(t)
	open := strings.Index(stderr, "tbnet experiment <")
	end := strings.Index(stderr, ">")
	if open < 0 || end < open {
		t.Fatalf("no experiment synopsis in usage:\n%s", stderr)
	}
	list := strings.Join(strings.Fields(stderr[open+len("tbnet experiment <"):end]), "")
	if want := "all|" + strings.Join(experimentNames(), "|"); list != want {
		t.Fatalf("usage lists %q, catalog is %q", list, want)
	}
}

func TestPipelineFlagValidation(t *testing.T) {
	cases := [][]string{
		{"pipeline", "-arch", "transformer"},
		{"pipeline", "-dataset", "imagenet"},
		{"pipeline", "-scale", "galactic"},
		{"pipeline", "-bogus"},
	}
	for _, args := range cases {
		code, _, _ := runCLI(t, args...)
		if code != 2 {
			t.Fatalf("%v: exit = %d, want 2", args, code)
		}
	}
}

func TestServeFlagValidation(t *testing.T) {
	cases := [][]string{
		{"serve", "-workers", "0"},
		{"serve", "-batch", "-1"},
		{"serve", "-requests", "0"},
		{"serve", "-delay", "-5ms"},
		{"serve", "-scale", "galactic"},
		{"serve", "-arch", "transformer"},
		{"serve", "-bogus"},
	}
	for _, args := range cases {
		code, _, stderr := runCLI(t, args...)
		if code != 2 {
			t.Fatalf("%v: exit = %d, want 2 (stderr %q)", args, code, stderr)
		}
	}
}

func TestFleetFlagValidation(t *testing.T) {
	cases := [][]string{
		{"fleet", "-requests", "0"},
		{"fleet", "-rate", "0"},
		{"fleet", "-rate", "-3"},
		{"fleet", "-deadline", "-1ms"},
		{"fleet", "-max-inflight", "-1"},
		{"fleet", "-devices", ""},
		{"fleet", "-devices", "rpi3:two"},
		{"fleet", "-devices", "abacus:2"},
		{"fleet", "-devices", "rpi3:0"},
		{"fleet", "-policy", "darts"},
		{"fleet", "-scale", "galactic"},
		{"fleet", "-pace", "-1"},
		{"fleet", "-autoscale", "-autoscale-min", "0"},
		{"fleet", "-autoscale", "-autoscale-min", "4", "-autoscale-max", "2"},
		{"fleet", "-autoscale", "-autoscale-interval", "0s"},
		{"fleet", "-bogus"},
	}
	for _, args := range cases {
		code, _, stderr := runCLI(t, args...)
		if code != 2 {
			t.Fatalf("%v: exit = %d, want 2 (stderr %q)", args, code, stderr)
		}
	}
}

// TestFleetFlagSurface pins the flag names and defaults of `tbnet fleet` and
// `tbnet scenario`, and checks both reject the shared fleet flags' bad values
// the way every binary does.
func TestFleetFlagSurface(t *testing.T) {
	shared := map[string]string{
		"arch": `"vgg"`, "dataset": `"c10"`, "device": `"rpi3"`, "json": ``, "scale": `"ci"`, "seed": `1`, "v": ``,
		"devices": `"rpi3:2,sgx-desktop:2,jetson-tz:2"`, "policy": `"cost-aware"`,
		"deadline": ``, "max-inflight": ``, "precision": `"f32"`, "pace": ``,
		"autoscale": ``, "autoscale-min": `1`, "autoscale-max": `8`, "autoscale-interval": `50ms`,
	}
	extras := map[string]map[string]string{
		"fleet": {"poisson": ``, "rate": `200`, "requests": `64`},
		"scenario": {
			"api-key": ``, "attack": ``, "models": ``, "obfuscate": ``, "registry": ``, "sweep": ``,
			"target": ``, "trace": ``, "trace-out": ``,
			"spec": `"warmup:uniform:120:1s,burst:burst:120:2s:480:1s,ramp:ramp:120:1500ms:420,diurnal:diurnal:100:2s:320:1s"`,
		},
	}
	for cmd, extra := range extras {
		t.Run(cmd, func(t *testing.T) {
			want := make(map[string]string)
			for k, v := range shared {
				want[k] = v
			}
			for k, v := range extra {
				want[k] = v
			}
			_, _, help := runCLI(t, cmd, "-h")
			cliconftest.CheckSurface(t, help, want)
			cliconftest.CheckRejections(t, func(args ...string) (int, string) {
				code, _, stderr := runCLI(t, append([]string{cmd}, args...)...)
				return code, stderr
			})
		})
	}
}

// TestCommandFlagSurface pins the flag names and defaults of the commands
// that do not take the fleet flags, so moving a flag's declaration cannot
// drift it. Defaults read as -h prints them: none for a zero value, and
// -name's help text itself ends in a "(default ...)" remark.
func TestCommandFlagSurface(t *testing.T) {
	common := map[string]string{
		"arch": `"vgg"`, "dataset": `"c10"`, "device": `"rpi3"`, "json": ``, "scale": `"ci"`, "seed": `1`, "v": ``,
	}
	with := func(own map[string]string) map[string]string {
		for k, v := range common {
			own[k] = v
		}
		return own
	}
	for cmd, want := range map[string]map[string]string{
		"pipeline": with(map[string]string{}),
		"save":     with(map[string]string{"int8": ``, "name": `the architecture name`, "out": ``, "registry": ``}),
		"serve": with(map[string]string{"workers": `4`, "batch": `8`, "delay": ``, "requests": `64`,
			"models": ``, "registry": ``, "precision": `"f32"`}),
		"load": {"device": ``, "in": ``, "json": ``, "name": ``, "registry": ``},
	} {
		_, _, help := runCLI(t, cmd, "-h")
		t.Run(cmd, func(t *testing.T) { cliconftest.CheckSurface(t, help, want) })
	}
}

// TestFleetCommandEndToEnd runs the fleet command on the tiny architecture
// at micro scale — train → deploy → route an open-loop Poisson load across a
// mixed fleet — and checks the JSON artifact shape. Gated behind -short
// because it trains a (small) pipeline.
func TestFleetCommandEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping pipeline-backed fleet run in short mode")
	}
	code, stdout, stderr := runCLI(t,
		"fleet", "-arch", "tiny-vgg", "-scale", "micro",
		"-devices", "rpi3:1,sgx-desktop:2,jetson-tz:1", "-policy", "cost-aware",
		"-requests", "32", "-rate", "2000", "-poisson", "-json")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	var st struct {
		Policy           string  `json:"policy"`
		Devices          int     `json:"devices"`
		Requests         int64   `json:"requests"`
		Shed             int64   `json:"shed"`
		RoutingDecisions int64   `json:"routing_decisions"`
		P99Micros        float64 `json:"p99_micros"`
		PerDevice        []struct {
			Name string `json:"name"`
		} `json:"per_device"`
	}
	if err := json.Unmarshal([]byte(stdout), &st); err != nil {
		t.Fatalf("fleet -json output not parseable: %v\n%s", err, stdout)
	}
	if st.Policy != "cost-aware" || st.Devices != 3 || len(st.PerDevice) != 3 {
		t.Fatalf("fleet attribution wrong: %+v", st)
	}
	if st.Requests+st.Shed < 32 || st.RoutingDecisions < st.Requests {
		t.Fatalf("request accounting wrong: %+v", st)
	}
	if st.P99Micros <= 0 {
		t.Fatalf("p99 = %g, want > 0", st.P99Micros)
	}
}

// TestFleetAutoscaleEndToEnd runs the fleet command with the elastic
// controller on: the JSON artifact keeps the flat fleet snapshot and gains a
// nested autoscale object echoing the controller's counters and bounds.
// Gated behind -short because it trains a (small) pipeline.
func TestFleetAutoscaleEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping pipeline-backed fleet run in short mode")
	}
	code, stdout, stderr := runCLI(t,
		"fleet", "-arch", "tiny-vgg", "-scale", "micro",
		"-devices", "rpi3:1", "-policy", "ewma", "-pace", "4",
		"-requests", "48", "-rate", "3000",
		"-autoscale", "-autoscale-min", "1", "-autoscale-max", "4",
		"-autoscale-interval", "10ms", "-json")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	var st struct {
		Policy    string `json:"policy"`
		Requests  int64  `json:"requests"`
		Shed      int64  `json:"shed"`
		Autoscale struct {
			Ticks   int64 `json:"ticks"`
			Workers int   `json:"workers"`
			Min     int   `json:"min"`
			Max     int   `json:"max"`
		} `json:"autoscale"`
	}
	if err := json.Unmarshal([]byte(stdout), &st); err != nil {
		t.Fatalf("fleet -autoscale -json output not parseable: %v\n%s", err, stdout)
	}
	if st.Requests+st.Shed < 48 {
		t.Fatalf("request accounting wrong: %+v", st)
	}
	if st.Autoscale.Ticks == 0 {
		t.Fatalf("controller never ticked: %+v", st)
	}
	if st.Autoscale.Min != 1 || st.Autoscale.Max != 4 {
		t.Fatalf("configured bounds not echoed: %+v", st)
	}
}

// TestScenarioSweepEndToEnd drives the same bursty workload through the
// autoscaled fleet and two static widths and checks the comparison artifact:
// one point per configuration, latency and worker-seconds populated. Gated
// behind -short because it trains a (small) pipeline and runs three serving
// legs.
func TestScenarioSweepEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping pipeline-backed scenario sweep in short mode")
	}
	code, stdout, stderr := runCLI(t,
		"scenario", "-arch", "tiny-vgg", "-scale", "micro",
		"-devices", "rpi3:1", "-policy", "ewma", "-pace", "2",
		"-autoscale-min", "1", "-autoscale-max", "4", "-autoscale-interval", "10ms",
		"-sweep", "1,2",
		"-spec", "burst:burst:200:500ms:600:250ms",
		"-json")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	var out struct {
		Sweep []struct {
			Config        string  `json:"config"`
			Autoscale     bool    `json:"autoscale"`
			WorstP99Ms    float64 `json:"worst_p99_ms"`
			WorkerSeconds float64 `json:"worker_seconds"`
			Offered       int     `json:"offered"`
			Served        int     `json:"served"`
		} `json:"sweep"`
	}
	if err := json.Unmarshal([]byte(stdout), &out); err != nil {
		t.Fatalf("sweep artifact not parseable: %v\n%s", err, stdout)
	}
	if len(out.Sweep) != 3 {
		t.Fatalf("sweep has %d points, want autoscale + 2 statics:\n%s", len(out.Sweep), stdout)
	}
	for i, want := range []string{"autoscale[1,4]", "static-1", "static-2"} {
		if out.Sweep[i].Config != want {
			t.Fatalf("point %d config = %q, want %q", i, out.Sweep[i].Config, want)
		}
	}
	if !out.Sweep[0].Autoscale || out.Sweep[1].Autoscale || out.Sweep[2].Autoscale {
		t.Fatalf("autoscale attribution wrong: %+v", out.Sweep)
	}
	for _, p := range out.Sweep {
		if p.Offered == 0 || p.Served == 0 {
			t.Fatalf("leg %s served nothing: %+v", p.Config, p)
		}
		if p.WorstP99Ms <= 0 || p.WorkerSeconds <= 0 {
			t.Fatalf("leg %s lacks latency/cost figures: %+v", p.Config, p)
		}
	}
}

// TestServeCommandEndToEnd runs the serve command on the tiny architecture at
// micro scale — the full train→deploy→serve loop — and checks the JSON
// summary shape. Gated behind -short because it trains a (small) pipeline.
func TestServeCommandEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping pipeline-backed serve run in short mode")
	}
	code, stdout, stderr := runCLI(t,
		"serve", "-arch", "tiny-vgg", "-scale", "micro", "-device", "jetson-tz",
		"-workers", "2", "-batch", "4", "-requests", "24", "-json")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	var st struct {
		Device            string  `json:"device"`
		PeakSecureBytes   int64   `json:"peak_secure_bytes"`
		Requests          int64   `json:"requests"`
		Errors            int64   `json:"errors"`
		MeanBatch         float64 `json:"mean_batch"`
		Workers           int     `json:"workers"`
		ModeledThroughput float64 `json:"modeled_throughput_rps"`
	}
	if err := json.Unmarshal([]byte(stdout), &st); err != nil {
		t.Fatalf("serve -json output not parseable: %v\n%s", err, stdout)
	}
	if st.Requests != 24 || st.Errors != 0 {
		t.Fatalf("served %d requests with %d errors, want 24/0", st.Requests, st.Errors)
	}
	if st.Workers != 2 || st.ModeledThroughput <= 0 {
		t.Fatalf("stats wrong: %+v", st)
	}
	if st.Device != "jetson-tz" || st.PeakSecureBytes <= 0 {
		t.Fatalf("device attribution wrong: %+v", st)
	}
}

// TestServeCLIDeviceChangesModeledNumbers is the CLI acceptance check: the
// same pipeline served on two backends yields machine-distinguishable JSON
// with different modeled latency. Batch and workers are pinned to 1 so the
// modeled figures do not depend on wall-clock batching. Gated behind -short.
func TestServeCLIDeviceChangesModeledNumbers(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping pipeline-backed serve runs in short mode")
	}
	p50 := map[string]float64{}
	for _, device := range []string{"rpi3", "sgx-desktop"} {
		code, stdout, stderr := runCLI(t,
			"serve", "-arch", "tiny-vgg", "-scale", "micro", "-device", device,
			"-workers", "1", "-batch", "1", "-requests", "8", "-json")
		if code != 0 {
			t.Fatalf("%s: exit = %d, stderr:\n%s", device, code, stderr)
		}
		var st struct {
			Device        string  `json:"device"`
			P50LatencySec float64 `json:"p50_latency_sec"`
		}
		if err := json.Unmarshal([]byte(stdout), &st); err != nil {
			t.Fatalf("%s: %v\n%s", device, err, stdout)
		}
		if st.Device != device {
			t.Fatalf("json device = %q, want %q", st.Device, device)
		}
		p50[device] = st.P50LatencySec
	}
	if p50["rpi3"] == p50["sgx-desktop"] {
		t.Fatalf("both devices report p50 %v — cost models not threaded through the CLI",
			p50["rpi3"])
	}
}

// TestPipelineCommandJSON runs the smallest full pipeline and checks the
// machine-readable summary. Gated behind -short.
func TestPipelineCommandJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping pipeline run in short mode")
	}
	code, stdout, stderr := runCLI(t,
		"pipeline", "-arch", "tiny-vgg", "-scale", "micro", "-json")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	var res struct {
		Arch        string  `json:"arch"`
		Device      string  `json:"device"`
		VictimAcc   float64 `json:"victim_acc"`
		TBAcc       float64 `json:"tbnet_acc"`
		SecureBytes int64   `json:"peak_secure_bytes"`
		LatencySec  float64 `json:"latency_sec"`
	}
	if err := json.Unmarshal([]byte(stdout), &res); err != nil {
		t.Fatalf("pipeline -json output not parseable: %v\n%s", err, stdout)
	}
	if res.Arch != "tiny-vgg" {
		t.Fatalf("arch = %q", res.Arch)
	}
	if res.VictimAcc < 0 || res.VictimAcc > 1 || res.TBAcc < 0 || res.TBAcc > 1 {
		t.Fatalf("accuracies out of range: %+v", res)
	}
	if res.Device != "rpi3" || res.SecureBytes <= 0 || res.LatencySec <= 0 {
		t.Fatalf("device attribution wrong: %+v", res)
	}
}

// TestVersionCommand: `tbnet version` (and the -version spellings) prints the
// release and toolchain versions and exits 0.
func TestVersionCommand(t *testing.T) {
	for _, cmd := range []string{"version", "-version", "--version"} {
		code, stdout, stderr := runCLI(t, cmd)
		if code != 0 {
			t.Fatalf("%s: exit = %d, stderr: %s", cmd, code, stderr)
		}
		if !strings.Contains(stdout, "tbnet "+tbnet.Version) || !strings.Contains(stdout, "go") {
			t.Fatalf("%s output = %q", cmd, stdout)
		}
	}
}

// TestScenarioTraceOutValidation: -trace-out only makes sense for a local
// fleet run — client mode and sweep comparisons refuse it fast.
func TestScenarioTraceOutValidation(t *testing.T) {
	for _, args := range [][]string{
		{"scenario", "-trace-out", "/tmp/x", "-target", "http://127.0.0.1:1"},
		{"scenario", "-trace-out", "/tmp/x", "-sweep", "1,2"},
	} {
		code, _, stderr := runCLI(t, args...)
		if code != 2 {
			t.Fatalf("%v: exit = %d, want 2 (stderr %q)", args, code, stderr)
		}
		if !strings.Contains(stderr, "-trace-out") {
			t.Fatalf("%v: stderr %q does not explain the conflict", args, stderr)
		}
	}
}

// TestScenarioTraceOutEndToEnd drives a paced local fleet through a short
// phase with span capture on and checks the -trace-out artifact: the
// /debug/trace JSON shape, with per-request timelines whose stage breakdowns
// carry the queue/batch/world costs. Gated behind -short (it trains a small
// pipeline).
func TestScenarioTraceOutEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping pipeline-backed scenario run in short mode")
	}
	out := filepath.Join(t.TempDir(), "spans.json")
	code, stdout, stderr := runCLI(t,
		"scenario", "-arch", "tiny-vgg", "-scale", "micro",
		"-devices", "rpi3:1", "-pace", "2",
		"-spec", "steady:uniform:100:500ms",
		"-trace-out", out, "-json")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "span timeline(s)") {
		t.Fatalf("no trace-out confirmation on stderr:\n%s", stderr)
	}
	// The main stdout artifact is unchanged by tracing.
	var res struct {
		Scenario struct {
			Served int `json:"served"`
		} `json:"scenario"`
	}
	if err := json.Unmarshal([]byte(stdout), &res); err != nil {
		t.Fatalf("scenario artifact not parseable: %v\n%s", err, stdout)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Returned int              `json:"returned"`
		Spans    []tbnet.SpanData `json:"spans"`
	}
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("trace artifact not parseable: %v\n%s", err, raw)
	}
	if dump.Returned == 0 || dump.Returned != len(dump.Spans) {
		t.Fatalf("trace artifact header = %d spans, body has %d", dump.Returned, len(dump.Spans))
	}
	if res.Scenario.Served > 0 && dump.Returned > res.Scenario.Served {
		t.Fatalf("captured %d spans for %d served requests", dump.Returned, res.Scenario.Served)
	}
	for _, d := range dump.Spans[:min(3, len(dump.Spans))] {
		if d.ID == "" || d.WallMs <= 0 || len(d.Stages) == 0 {
			t.Fatalf("span lacks identity or breakdown: %+v", d)
		}
		for _, stage := range []string{"queued", "ree", "tee", "pace"} {
			if d.StageMs(stage) <= 0 {
				t.Fatalf("span %s missing stage %q: %s", d.ID, stage, d.StagesString())
			}
		}
	}
}
