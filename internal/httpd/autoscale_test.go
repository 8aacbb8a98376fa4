package httpd

// Tests for the daemon's autoscaling observability and for the coexistence
// of its two background control loops: the idle-model reaper (which frees
// secure-memory reservations) and the autoscale controller (which claims
// them). Both loops mutate the same per-device budget, so the coexistence
// test is a -race regression: the controller runs live against a
// deliberately tight budget while the reaper sweeps from the test goroutine,
// and the controller's refused scale-ups must turn into successful ones
// exactly when the reaper releases the idle models.

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"tbnet/internal/autoscale"
	"tbnet/internal/fleet"
	"tbnet/internal/tee"
)

// measurePeak builds a throwaway fleet on an unrestricted rpi3, walks the
// node through the given widths, and returns the device's secure-memory
// high-water mark — the empirical cost of that resize sequence. With
// extraModels two additional hosted models ride along at every width.
func measurePeak(t *testing.T, extraModels bool, widths []int) int64 {
	t.Helper()
	cfg := fleet.Config{
		Nodes:    []fleet.NodeConfig{{Device: tee.RaspberryPi3(), Workers: 1}},
		MaxBatch: 1,
		MaxDelay: time.Millisecond,
	}
	if extraModels {
		cfg.Models = []fleet.NamedModel{
			{Name: "idle-a", Dep: testDeployment(t, 21)},
			{Name: "idle-b", Dep: testDeployment(t, 22)},
		}
	}
	f, err := fleet.New(testDeployment(t, 20), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, w := range widths {
		if err := f.ResizeNode("rpi3", w); err != nil {
			t.Fatalf("probe resize to %d: %v", w, err)
		}
	}
	return f.Stats().PeakSecureBytes
}

// TestReaperAutoscalerShareSecureBudget is the coexistence regression: the
// reaper and the autoscale controller run concurrently against one device
// whose secure-memory budget fits the default model at full width OR three
// models at width one — never both. Under sustained pressure the controller
// must first be refused by the budget (three models hosted), then succeed
// as soon as the reaper expires the two idle models, without ever exceeding
// the budget and without the race detector firing on the shared reservation.
func TestReaperAutoscalerShareSecureBudget(t *testing.T) {
	// Size the budget empirically between the two regimes: the solo peak is
	// the warm-then-drain transient of growing the lone default model 1→2→4;
	// the scaled peak is the transient of growing all three models 1→2.
	peakSolo := measurePeak(t, false, []int{2, 4})
	peakScaled := measurePeak(t, true, []int{2})
	if peakSolo >= peakScaled {
		t.Fatalf("probe geometry broken: solo peak %d >= three-model peak %d", peakSolo, peakScaled)
	}
	budget := peakSolo + (peakScaled-peakSolo)/2

	dev := tee.WithSecureMem(tee.RaspberryPi3(), budget)
	s, f := testServer(t, func(c *fleet.Config) {
		c.Nodes = []fleet.NodeConfig{{Device: dev, Workers: 1}}
		c.Models = []fleet.NamedModel{
			{Name: "idle-a", Dep: testDeployment(t, 21)},
			{Name: "idle-b", Dep: testDeployment(t, 22)},
		}
		c.MaxBatch = 1
		c.MaxInFlight = -1
		c.Deadline = 30 * time.Second
		// Pace requests to ~75ms of wall service so pressure stays parked
		// across many controller ticks regardless of host speed.
		c.PaceScale = 50
	}, func(c *Config) { c.IdleTTL = time.Minute })
	ctl, err := autoscale.New(f, autoscale.Config{
		Interval: 5 * time.Millisecond,
		Min:      1,
		Max:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.BindController(ctl)
	ctl.Start()

	// Sustained pressure on the default model: 16 firing goroutines keep
	// ~16 requests pending on it, far above Max × 1.5 = 6, so every tick
	// wants the full Max width and the controller never scales down. Shed or
	// refused requests under resize churn are fine — pressure is what
	// matters.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			x := randSample(uint64(9000 + i))
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _ = f.Infer(context.Background(), x)
			}
		}(i)
	}
	defer func() { close(stop); wg.Wait() }()

	// Phase 1 — three models hosted: every scale-up must bounce off the
	// budget, leaving the node at its pre-resize width.
	deadline := time.Now().Add(20 * time.Second)
	for ctl.Stats().Refused == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("controller never hit the secure-memory budget: %+v", ctl.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := f.Workers(); got != 1 {
		t.Fatalf("workers = %d after a refused scale-up, want the pre-resize 1", got)
	}

	// Phase 2 — the reaper sweeps once to stamp the idle models and once a
	// TTL later to expire them: their reservations return to the budget, and
	// the controller's next attempts succeed.
	now := time.Now()
	s.reaper.sweep(now)
	s.reaper.sweep(now.Add(time.Minute))
	for {
		if time.Now().After(deadline) {
			t.Fatalf("scale-up never succeeded after reaping; hosted %v, workers %d, ctl %+v",
				f.Models(), f.Workers(), ctl.Stats())
		}
		if len(f.Models()) == 1 && f.Workers() >= 2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := ctl.Stats(); st.ScaleUps == 0 {
		t.Fatalf("no scale-ups recorded after the reaper freed the budget: %+v", st)
	}
	if got := s.metrics.reaped.Load(); got != 2 {
		t.Fatalf("reaped counter = %d, want 2", got)
	}
	if peak := f.Stats().PeakSecureBytes; peak > budget {
		t.Fatalf("secure high-water %d exceeded the %d-byte budget", peak, budget)
	}
}

// TestMetricsAutoscaleExposition: the scrape carries the per-node worker
// gauge and worker-seconds unconditionally, adds the autoscale counter
// families exactly when a controller is bound, and one EWMA latency cell per
// learned (model, device) pair — all under the strict exposition parser.
func TestMetricsAutoscaleExposition(t *testing.T) {
	// Without a controller or estimator the adaptive families must be absent.
	s0, _ := testServer(t, nil, nil)
	fam0 := parsePromText(t, getPath(t, s0.Handler(), "/metrics").Body.String())
	for _, banned := range []string{
		"tbnet_autoscale_running", "tbnet_autoscale_ticks_total", "tbnet_ewma_latency_seconds",
	} {
		if fam0[banned] != 0 {
			t.Fatalf("family %s exposed without a controller/estimator", banned)
		}
	}
	if fam0["tbnet_device_workers"] != 1 {
		t.Fatalf("tbnet_device_workers samples = %d, want 1", fam0["tbnet_device_workers"])
	}
	if fam0["tbnet_fleet_worker_seconds_total"] != 1 {
		t.Fatal("tbnet_fleet_worker_seconds_total missing from the base scrape")
	}

	// An EWMA-routed two-node fleet with a bound controller exposes all of it.
	s, f := testServer(t, func(c *fleet.Config) {
		c.Nodes = append(c.Nodes, fleet.NodeConfig{Device: tee.SGXDesktop(), Workers: 1})
		c.Policy = fleet.EWMA()
	}, nil)
	ctl, err := autoscale.New(f, autoscale.Config{Interval: time.Hour, Min: 1, Max: 6})
	if err != nil {
		t.Fatal(err)
	}
	f.BindController(ctl)
	ctl.Start()
	for i := 0; i < 8; i++ {
		if _, err := f.Infer(context.Background(), randSample(uint64(400+i))); err != nil {
			t.Fatal(err)
		}
	}
	body := getPath(t, s.Handler(), "/metrics").Body.String()
	fam := parsePromText(t, body)
	if fam["tbnet_device_workers"] != 2 {
		t.Fatalf("tbnet_device_workers samples = %d, want one per node", fam["tbnet_device_workers"])
	}
	for _, want := range []string{
		"tbnet_autoscale_running", "tbnet_autoscale_ticks_total",
		"tbnet_autoscale_scale_ups_total", "tbnet_autoscale_scale_downs_total",
		"tbnet_autoscale_refused_total", "tbnet_autoscale_workers_min",
		"tbnet_autoscale_workers_max",
	} {
		if fam[want] != 1 {
			t.Fatalf("autoscale family %s: %d samples, want 1\n%s", want, fam[want], body)
		}
	}
	if !strings.Contains(body, "tbnet_autoscale_running 1") {
		t.Fatalf("controller not reported live:\n%s", body)
	}
	if !strings.Contains(body, "tbnet_autoscale_workers_max 6") {
		t.Fatalf("configured ceiling not exposed:\n%s", body)
	}
	if fam["tbnet_ewma_latency_seconds"] < 1 {
		t.Fatal("no EWMA latency cells after served traffic")
	}
	if fam["tbnet_ewma_latency_seconds"] != fam["tbnet_ewma_samples_total"] {
		t.Fatalf("EWMA cell mismatch: %d latency vs %d sample counters",
			fam["tbnet_ewma_latency_seconds"], fam["tbnet_ewma_samples_total"])
	}
	if !strings.Contains(body, `tbnet_ewma_latency_seconds{model="`+fleet.DefaultModel+`",device="`) {
		t.Fatalf("EWMA cell lacks model/device labels:\n%s", body)
	}

	// Stopping the controller flips the liveness gauge but keeps the family.
	ctl.Stop()
	body = getPath(t, s.Handler(), "/metrics").Body.String()
	if !strings.Contains(body, "tbnet_autoscale_running 0") {
		t.Fatalf("stopped controller still reported live:\n%s", body)
	}
}
