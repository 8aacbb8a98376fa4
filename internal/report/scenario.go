package report

import (
	"fmt"

	"tbnet/internal/scenario"
)

// ScenarioTable renders a completed scenario run as a text table: one row
// per phase with offered/served/shed counts, realized rates, and
// client-observed wall-latency percentiles, followed by a totals row.
func ScenarioTable(res *scenario.Result) *Table {
	title := "Scenario"
	if res.Name != "" {
		title = fmt.Sprintf("Scenario %q", res.Name)
	}
	t := &Table{
		Title: title,
		Header: []string{"Phase", "Pattern", "Offered", "Served", "Shed", "Failed",
			"Shed %", "Offered req/s", "Served req/s", "p50 (ms)", "p95 (ms)", "p99 (ms)"},
	}
	for _, ph := range res.Phases {
		t.AddRow(ph.Name, ph.Pattern,
			fmt.Sprintf("%d", ph.Offered),
			fmt.Sprintf("%d", ph.Served),
			fmt.Sprintf("%d", ph.Shed),
			fmt.Sprintf("%d", ph.Failed),
			Pct(ph.ShedRate),
			fmt.Sprintf("%.0f", ph.OfferedRPS),
			fmt.Sprintf("%.0f", ph.ServedRPS),
			fmt.Sprintf("%.2f", ph.P50Ms),
			fmt.Sprintf("%.2f", ph.P95Ms),
			fmt.Sprintf("%.2f", ph.P99Ms),
		)
	}
	shedRate := 0.0
	if res.Offered > 0 {
		shedRate = float64(res.Shed) / float64(res.Offered)
	}
	servedRPS := 0.0
	if res.WallSeconds > 0 {
		servedRPS = float64(res.Served) / res.WallSeconds
	}
	t.AddRow("total", "-",
		fmt.Sprintf("%d", res.Offered),
		fmt.Sprintf("%d", res.Served),
		fmt.Sprintf("%d", res.Shed),
		fmt.Sprintf("%d", res.Failed),
		Pct(shedRate),
		"-",
		fmt.Sprintf("%.0f", servedRPS),
		"-", "-", "-",
	)
	return t
}

// ScenarioModelTable renders a scenario's per-model totals: offered/served
// counts and realized throughput per hosted model.
func ScenarioModelTable(res *scenario.Result) *Table {
	t := &Table{
		Title:  "Per-model traffic",
		Header: []string{"Model", "Offered", "Served", "Shed", "Failed", "Thpt (req/s)"},
	}
	for _, mc := range res.PerModel {
		t.AddRow(mc.Model,
			fmt.Sprintf("%d", mc.Offered),
			fmt.Sprintf("%d", mc.Served),
			fmt.Sprintf("%d", mc.Shed),
			fmt.Sprintf("%d", mc.Failed),
			fmt.Sprintf("%.1f", mc.ThroughputRPS),
		)
	}
	return t
}
