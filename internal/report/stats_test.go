package report

import (
	"encoding/json"
	"strings"
	"testing"

	"tbnet/internal/fleet"
	"tbnet/internal/serve"
)

func sampleFleetStats() fleet.Stats {
	return fleet.Stats{
		Policy:            "cost-aware",
		Devices:           2,
		Requests:          90,
		Shed:              3,
		RoutingDecisions:  90,
		P50Micros:         120,
		P95Micros:         900,
		P99Micros:         30500,
		ModeledThroughput: 4200,
		PeakSecureBytes:   1 << 20,
		PerDevice: []fleet.DeviceStats{
			{Name: "rpi3", Routed: 5, Shed: 1, SampleLatencyMicros: 30000,
				Serve: serve.Stats{Device: "rpi3", Workers: 2, MeanBatch: 1.2,
					P50Latency: 0.03, P95Micros: 31000, P99Latency: 0.032,
					AvgQueueWaitMicros: 800, ModeledThroughput: 33}},
			{Name: "jetson-tz", Routed: 85, Serve: serve.Stats{Device: "jetson-tz",
				Workers: 2, MeanBatch: 3.4, P50Latency: 0.0001, P95Micros: 150,
				P99Latency: 0.0002, ModeledThroughput: 4167}},
		},
	}
}

func TestFleetTableRender(t *testing.T) {
	out := FleetTable(sampleFleetStats()).String()
	for _, want := range []string{"cost-aware", "rpi3", "jetson-tz", "fleet",
		"p95 (µs)", "Shed", "94.44%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fleet table missing %q:\n%s", want, out)
		}
	}
}

func TestFleetTableNoTraffic(t *testing.T) {
	st := fleet.Stats{Policy: "round-robin", Devices: 1,
		PerDevice: []fleet.DeviceStats{{Name: "rpi3"}}}
	out := FleetTable(st).String()
	if !strings.Contains(out, "-") {
		t.Fatalf("zero-traffic shares should render as '-':\n%s", out)
	}
}

func TestRenderFleetStatsJSON(t *testing.T) {
	var b strings.Builder
	if err := RenderFleetStatsJSON(&b, sampleFleetStats()); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Policy    string  `json:"policy"`
		Shed      int64   `json:"shed"`
		P99Micros float64 `json:"p99_micros"`
		PerDevice []struct {
			Name  string `json:"name"`
			Serve struct {
				P95Micros          float64 `json:"p95_micros"`
				AvgQueueWaitMicros float64 `json:"avg_queue_wait_micros"`
			} `json:"serve"`
		} `json:"per_device"`
	}
	if err := json.Unmarshal([]byte(b.String()), &got); err != nil {
		t.Fatalf("fleet JSON not parseable: %v\n%s", err, b.String())
	}
	if got.Policy != "cost-aware" || got.Shed != 3 || got.P99Micros != 30500 {
		t.Fatalf("fleet JSON fields wrong: %+v", got)
	}
	if len(got.PerDevice) != 2 || got.PerDevice[0].Serve.P95Micros != 31000 ||
		got.PerDevice[0].Serve.AvgQueueWaitMicros != 800 {
		t.Fatalf("per-device serve stats not threaded through JSON: %+v", got)
	}
}
