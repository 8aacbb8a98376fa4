package autoscale

import (
	"context"
	"testing"
	"time"

	"tbnet/internal/fleet"
	"tbnet/internal/scenario"
	"tbnet/internal/tee"
	"tbnet/internal/tensor"
)

// diurnalSpec is the acceptance workload: a quiet night, a compressed day
// whose arrival rate sweeps sinusoidally from 40 to 1500 req/s and back, and
// a second night. With pacing at ~6ms of wall service per request, the peak
// needs ~9 workers while the nights need 1 — no static width is right for
// both regimes.
func diurnalSpec() scenario.Spec {
	return scenario.Spec{
		Name: "diurnal",
		Seed: 7,
		Phases: []scenario.Phase{
			{Name: "night", Pattern: scenario.Uniform, Rate: 40, Duration: 2500 * time.Millisecond},
			{Name: "day", Pattern: scenario.Diurnal, Rate: 40, PeakRate: 1500, Duration: 2 * time.Second},
			{Name: "night2", Pattern: scenario.Uniform, Rate: 40, Duration: 2500 * time.Millisecond},
		},
	}
}

// closedLoopOutcome is one configuration's measured cost/latency point.
type closedLoopOutcome struct {
	p99Ms         float64 // worst phase's client-observed p99
	workerSeconds float64 // total capacity paid for across the run
}

// runDiurnal drives the acceptance workload against a single-node paced
// fleet at the given static width, or (workers = min) under the controller.
func runDiurnal(t *testing.T, workers int, auto bool) closedLoopOutcome {
	t.Helper()
	f, err := fleet.New(testDeployment(t, 30), fleet.Config{
		Nodes:    []fleet.NodeConfig{{Device: tee.RaspberryPi3(), Workers: workers}},
		MaxBatch: 1,
		MaxDelay: 100 * time.Microsecond,
		// The comparison is pure latency-vs-cost: nothing may be shed, so
		// overload shows up as queueing delay in the client percentiles.
		MaxInFlight: -1,
		// ~1.5ms modeled rpi3 latency × 4 ≈ 6ms wall service per request:
		// one worker carries ~165 req/s regardless of host core count.
		PaceScale: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var ctl *Controller
	if auto {
		ctl, err = New(f, Config{
			Interval: 20 * time.Millisecond,
			Min:      workers,
			Max:      12,
		})
		if err != nil {
			t.Fatal(err)
		}
		f.BindController(ctl)
		ctl.Start()
	}
	xs := randSamples(64, 31)
	res, err := scenario.Run(context.Background(), f, diurnalSpec(),
		func(i int) *tensor.Tensor { return xs[i%len(xs)] })
	if err != nil {
		t.Fatal(err)
	}
	out := closedLoopOutcome{workerSeconds: f.WorkerSeconds()}
	if res.Shed != 0 || res.Failed != 0 {
		t.Fatalf("run (auto=%v workers=%d) shed %d / failed %d of %d requests",
			auto, workers, res.Shed, res.Failed, res.Offered)
	}
	for _, ph := range res.Phases {
		if ph.P99Ms > out.p99Ms {
			out.p99Ms = ph.P99Ms
		}
	}
	if auto {
		st := ctl.Stats()
		if st.ScaleUps == 0 || st.ScaleDowns == 0 {
			t.Fatalf("controller never scaled across the diurnal run: %+v", st)
		}
		if st.Refused != 0 {
			t.Fatalf("controller hit the secure-memory budget %d times on an uncontended device", st.Refused)
		}
		t.Logf("autoscale: %d ups, %d downs, final %d workers", st.ScaleUps, st.ScaleDowns, st.Workers)
	}
	t.Logf("auto=%v workers=%d: worst p99 %.1fms, %.1f worker-seconds (wall %.1fs)",
		auto, workers, out.p99Ms, out.workerSeconds, res.WallSeconds)
	return out
}

// TestAutoscaleBeatsEveryStaticOnDiurnal is the subsystem's closed-loop
// acceptance: on the diurnal workload the autoscaled fleet must beat EVERY
// static configuration on BOTH client p99 latency AND total worker-seconds.
// The statics are genuinely competitive — 3 is the cheapest that survives
// the nights comfortably, 8 nearly covers the peak — yet each either pays
// for idle night capacity (high worker-seconds) or queues at the peak (high
// p99). The controller tracks the sine with doubling scale-ups and
// hysteresis scale-downs and lands below all of them on both axes.
func TestAutoscaleBeatsEveryStaticOnDiurnal(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop diurnal acceptance drives ~25s of open-loop load; skipped in -short")
	}
	autoOut := runDiurnal(t, 1, true)
	for _, static := range []int{3, 5, 8} {
		s := runDiurnal(t, static, false)
		if autoOut.p99Ms >= s.p99Ms {
			t.Errorf("autoscale p99 %.1fms not better than static-%d's %.1fms",
				autoOut.p99Ms, static, s.p99Ms)
		}
		if autoOut.workerSeconds >= s.workerSeconds {
			t.Errorf("autoscale %.1f worker-seconds not cheaper than static-%d's %.1f",
				autoOut.workerSeconds, static, s.workerSeconds)
		}
	}
}
