package seceval

import (
	"reflect"
	"testing"

	"tbnet/internal/core"
	"tbnet/internal/tee"
	"tbnet/internal/tensor"
	"tbnet/internal/zoo"
)

// TestCaptureIsolatedIsOneProbeRun locks CaptureIsolated's contract as the
// benchmark reads it (16 probes; modeled_device_ms and attack_hit_rate come
// from it), on every backend in both precisions: each returned view equals
// the attacker view of one single-sample run on a batch-1 replica, and
// runSeconds equals that run's modeled latency — the mean of 16 such probe
// runs, which all complete (core's TestModeledLatencyMatchesMeter holds a
// run to its script). The replica, not dep (sized for 8), is what is priced:
// sgx-desktop's EPC paging reads its secure footprint.
func TestCaptureIsolatedIsOneProbeRun(t *testing.T) {
	const probes = 16
	tb := core.NewTwoBranch(zoo.BuildVGG(zoo.VGG18Config(10), tensor.NewRNG(41)), 42)
	tb.Finalized = true
	shape := []int{8, 3, 16, 16}
	var bases []*core.Deployment
	for _, deploy := range []func(*core.TwoBranch, tee.Device, []int) (*core.Deployment, error){core.Deploy, core.DeployInt8} {
		base, err := deploy(tb, tee.RaspberryPi3(), shape)
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, base)
	}
	for _, dev := range tee.Devices() {
		for _, base := range bases {
			// A replica keeps the base's precision and is priced on dev.
			dep, err := base.ReplicateOn(tee.Unbounded(dev), 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			what := dev.Name() + " " + string(dep.Precision())
			views, runSeconds, err := CaptureIsolated(dep, probes, 5)
			if err != nil || len(views) != probes {
				t.Fatalf("%s: %d views, err %v", what, len(views), err)
			}
			rep, err := dep.ReplicateOn(tee.Unbounded(dev), 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			rng := tensor.NewRNG(5)
			for i := 0; i < probes; i++ {
				x := tensor.New(append([]int{1}, shape[1:]...)...)
				rng.FillNormal(x, 0, 1)
				if _, err := rep.Infer(x); err != nil {
					t.Fatal(err)
				}
			}
			if got := rep.Samples(); got != probes {
				t.Fatalf("%s: %d probe runs completed %d samples", what, probes, got)
			}
			script, err := rep.Script(1)
			if err != nil {
				t.Fatal(err)
			}
			view := script.AttackerView()
			for i, v := range views {
				if !reflect.DeepEqual(v, view) {
					t.Fatalf("%s: view %d is %v, one run shows %v", what, i, v, view)
				}
			}
			if len(views) > 1 && &views[0][0] == &views[1][0] {
				t.Fatalf("%s: views share storage", what)
			}
			if want, _ := rep.ModeledLatency(1); runSeconds != want || runSeconds <= 0 {
				t.Fatalf("%s: runSeconds %v, one probe run is %v", what, runSeconds, want)
			}
		}
	}
}
