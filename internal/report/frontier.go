package report

import "fmt"

// FrontierPoint is one candidate on the attack-success-vs-overhead frontier:
// a defense configuration (placement strategy, obfuscation chain, or both)
// with its attack hit-rate and modeled-latency overhead relative to the
// undefended serving path.
type FrontierPoint struct {
	// Device is the hardware backend the point was modeled on.
	Device string
	// Config names the candidate ("tbnet+pad:4096", "darknetz-split2").
	Config string
	// Kind classifies it: "undefended", "obfuscation", "placement", or
	// "combo".
	Kind string
	// HitRate is the architecture-inference attack's mean hit rate against
	// this configuration's traces.
	HitRate float64
	// Overhead is the modeled-latency overhead fraction vs undefended
	// (0.2 = 20% slower).
	Overhead float64
	// Feasible marks points within the tuner's latency budget.
	Feasible bool
	// Pareto marks points no other candidate dominates (lower-or-equal
	// hit rate AND overhead, one strictly lower).
	Pareto bool
	// Best marks the tuner's pick: minimum hit rate within budget,
	// overhead as tie-break.
	Best bool
}

// MarkPareto computes the Pareto front in place: a point is dominated when
// another point has hit rate and overhead both no worse and at least one
// strictly better.
func MarkPareto(points []FrontierPoint) {
	for i := range points {
		dominated := false
		for j := range points {
			if i == j {
				continue
			}
			p, q := points[i], points[j]
			if q.HitRate <= p.HitRate && q.Overhead <= p.Overhead &&
				(q.HitRate < p.HitRate || q.Overhead < p.Overhead) {
				dominated = true
				break
			}
		}
		points[i].Pareto = !dominated
	}
}

// AttackRow is one tenant's attack outcome from a live fleet capture,
// paired with the isolated single-session baseline on the same deployment.
type AttackRow struct {
	// Node is the fleet node whose runs were attacked.
	Node string `json:"node"`
	// Model is the model pool (tenant) the runs served.
	Model string `json:"model"`
	// Runs is the number of captured serving runs attacked.
	Runs int `json:"runs"`
	// MeanBatch is the average coalesced sample count per run.
	MeanBatch float64 `json:"mean_batch"`
	// HitRate is the attack's mean hit rate over the live capture.
	HitRate float64 `json:"hit_rate"`
	// IsolatedHitRate is the hit rate under ideal attacker conditions
	// (private replica, one probe per trace).
	IsolatedHitRate float64 `json:"isolated_hit_rate"`
}

// AttackTable renders per-tenant live-vs-isolated attack outcomes.
func AttackTable(rows []AttackRow) *Table {
	t := &Table{
		Title: "Architecture-inference attack vs live fleet traces",
		Header: []string{"Node", "Model", "Runs", "Mean Batch",
			"Live Hit Rate", "Isolated Hit Rate"},
	}
	for _, r := range rows {
		t.AddRow(r.Node, r.Model, fmt.Sprintf("%d", r.Runs),
			fmt.Sprintf("%.2f", r.MeanBatch), Pct(r.HitRate), Pct(r.IsolatedHitRate))
	}
	return t
}
