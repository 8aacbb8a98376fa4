package report

import (
	"encoding/json"
	"fmt"
	"io"

	"tbnet/internal/fleet"
)

// Serving-layer renderers: the fleet stats snapshot rendered in the same two
// forms every other table gets — an aligned text table and one JSON object.

// RenderFleetStatsJSON writes an aggregated fleet snapshot — fleet-wide
// counters, merged percentiles, and the per-device breakdown — as one JSON
// object.
func RenderFleetStatsJSON(w io.Writer, st fleet.Stats) error {
	return json.NewEncoder(w).Encode(st)
}

// FleetTable renders an aggregated fleet snapshot as a text table: one row
// per attached device plus a fleet-wide summary row. Latency figures are
// modeled microseconds on each device's cost model; Wait is the host-side
// mean batching delay; Shed counts requests refused by admission control or
// timed out by the fleet deadline.
func FleetTable(st fleet.Stats) *Table {
	t := &Table{
		Title: fmt.Sprintf("Fleet: %q routing over %d devices", st.Policy, st.Devices),
		Header: []string{"Device", "Routed", "Share", "Workers", "Mean Batch",
			"p50 (µs)", "p95 (µs)", "p99 (µs)", "Wait (µs)", "Shed", "Thpt (req/s)"},
		Device:          "fleet",
		PeakSecureBytes: st.PeakSecureBytes,
	}
	share := func(n int64) string {
		if st.RoutingDecisions == 0 {
			return "-"
		}
		return Pct(float64(n) / float64(st.RoutingDecisions))
	}
	var workers int
	for _, d := range st.PerDevice {
		workers += d.Serve.Workers
		t.AddRow(d.Name,
			fmt.Sprintf("%d", d.Routed),
			share(d.Routed),
			fmt.Sprintf("%d", d.Serve.Workers),
			fmt.Sprintf("%.2f", d.Serve.MeanBatch),
			fmt.Sprintf("%.0f", d.Serve.P50Latency*1e6),
			fmt.Sprintf("%.0f", d.Serve.P95Micros),
			fmt.Sprintf("%.0f", d.Serve.P99Latency*1e6),
			fmt.Sprintf("%.0f", d.Serve.AvgQueueWaitMicros),
			fmt.Sprintf("%d", d.Shed),
			fmt.Sprintf("%.1f", d.Serve.ModeledThroughput),
		)
	}
	t.AddRow("fleet",
		fmt.Sprintf("%d", st.RoutingDecisions),
		share(st.RoutingDecisions),
		fmt.Sprintf("%d", workers),
		"-",
		fmt.Sprintf("%.0f", st.P50Micros),
		fmt.Sprintf("%.0f", st.P95Micros),
		fmt.Sprintf("%.0f", st.P99Micros),
		"-",
		fmt.Sprintf("%d", st.Shed),
		fmt.Sprintf("%.1f", st.ModeledThroughput),
	)
	return t
}
