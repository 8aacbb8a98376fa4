package report

// Autoscale reporting: the controller-counter summary, the scaling-event
// timeline, and the static-vs-autoscale sweep comparison (`tbnet scenario
// -sweep`).

import (
	"encoding/json"
	"fmt"
	"io"

	"tbnet/internal/autoscale"
)

// AutoscaleTable renders an autoscale controller snapshot: the actuation
// counters, the enforced per-node bounds, and the fleet's worker-seconds
// ledger — total capacity paid for over the run, busy or idle.
func AutoscaleTable(st autoscale.Stats, workerSeconds float64) *Table {
	t := &Table{
		Title:  "Autoscale controller",
		Header: []string{"Ticks", "Ups", "Downs", "Refused", "Workers", "Bounds", "Worker-sec"},
	}
	t.AddRow(
		fmt.Sprintf("%d", st.Ticks),
		fmt.Sprintf("%d", st.ScaleUps),
		fmt.Sprintf("%d", st.ScaleDowns),
		fmt.Sprintf("%d", st.Refused),
		fmt.Sprintf("%d", st.Workers),
		fmt.Sprintf("[%d,%d]", st.Min, st.Max),
		fmt.Sprintf("%.2f", workerSeconds),
	)
	return t
}

// AutoscaleEventTable renders the controller's retained scaling events as a
// timeline, timestamps given as offsets from the first event.
func AutoscaleEventTable(events []autoscale.Event) *Table {
	t := &Table{
		Title:  "Scaling events",
		Header: []string{"T+ (s)", "Node", "Action", "From", "To", "Fleet", "Reason"},
	}
	if len(events) == 0 {
		return t
	}
	t0 := events[0].At
	for _, ev := range events {
		t.AddRow(
			fmt.Sprintf("%.2f", ev.At.Sub(t0).Seconds()),
			ev.Node,
			string(ev.Action),
			fmt.Sprintf("%d", ev.From),
			fmt.Sprintf("%d", ev.To),
			fmt.Sprintf("%d", ev.TotalWorkers),
			ev.Reason,
		)
	}
	return t
}

// AutoscalePoint is one configuration's outcome in a static-vs-autoscale
// sweep: the latency the clients saw against the capacity the fleet paid for.
type AutoscalePoint struct {
	// Config names the configuration ("static-4", "autoscale[1,8]").
	Config string `json:"config"`
	// Autoscale marks the controller-driven run.
	Autoscale bool `json:"autoscale"`
	// WorstP99Ms is the worst phase's client-observed p99 in milliseconds.
	WorstP99Ms float64 `json:"worst_p99_ms"`
	// WorkerSeconds is the provisioned-capacity integral over the run.
	WorkerSeconds float64 `json:"worker_seconds"`
	// Offered, Served, Shed, Failed count the run's requests by outcome.
	Offered int `json:"offered"`
	// Served is the number of requests answered successfully.
	Served int `json:"served"`
	// Shed is the number refused by admission control or deadline.
	Shed int `json:"shed"`
	// Failed is the number that errored for any other reason.
	Failed int `json:"failed"`
	// ScaleUps, ScaleDowns, Refused echo the controller counters on the
	// autoscaled point; zero on static points.
	ScaleUps int64 `json:"scale_ups,omitempty"`
	// ScaleDowns is the controller's actuated pool-narrowing count.
	ScaleDowns int64 `json:"scale_downs,omitempty"`
	// Refused is the controller's budget-refused scale-up count.
	Refused int64 `json:"refused,omitempty"`
}

// AutoscaleSweepTable renders the sweep comparison: one row per
// configuration, latency versus cost side by side.
func AutoscaleSweepTable(points []AutoscalePoint) *Table {
	t := &Table{
		Title: "Static vs. autoscale",
		Header: []string{"Config", "Offered", "Served", "Shed", "Failed",
			"Worst p99 (ms)", "Worker-sec", "Ups", "Downs", "Refused"},
	}
	for _, p := range points {
		ups, downs, refused := "-", "-", "-"
		if p.Autoscale {
			ups = fmt.Sprintf("%d", p.ScaleUps)
			downs = fmt.Sprintf("%d", p.ScaleDowns)
			refused = fmt.Sprintf("%d", p.Refused)
		}
		t.AddRow(p.Config,
			fmt.Sprintf("%d", p.Offered),
			fmt.Sprintf("%d", p.Served),
			fmt.Sprintf("%d", p.Shed),
			fmt.Sprintf("%d", p.Failed),
			fmt.Sprintf("%.2f", p.WorstP99Ms),
			fmt.Sprintf("%.2f", p.WorkerSeconds),
			ups, downs, refused,
		)
	}
	return t
}

// RenderAutoscaleJSON writes the sweep comparison as one JSON object, the
// `tbnet scenario -sweep -json` output.
func RenderAutoscaleJSON(w io.Writer, points []AutoscalePoint) error {
	return json.NewEncoder(w).Encode(struct {
		Sweep []AutoscalePoint `json:"sweep"`
	}{points})
}
