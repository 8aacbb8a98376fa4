package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"tbnet/internal/fleet"
	"tbnet/internal/report"
	"tbnet/internal/tee"
)

// The fleet experiment: the same finalized model served on a mixed
// rpi3 + sgx-desktop + jetson-tz fleet under each routing policy. On
// heterogeneous hardware the policy — not per-device batching — determines
// the fleet-wide latency tail: round-robin pins p99 to the slowest board,
// while cost-aware routing keeps the edge device idle until the server-class
// backends saturate.

// fleetDevices returns the mixed fleet the experiment runs on, in
// measurement mode so per-policy comparisons never abort on capacity.
func fleetDevices() []string { return []string{"rpi3", "sgx-desktop", "jetson-tz"} }

// FleetPolicyResult is one policy's aggregated outcome on the mixed fleet.
type FleetPolicyResult struct {
	Policy string
	Stats  fleet.Stats
}

// FleetComparison serves the finalized VGG/SynthC10 model on the mixed fleet
// once per routing policy, driving an identical closed-loop load each time,
// and returns the aggregated stats per policy.
func (l *Lab) FleetComparison() []FleetPolicyResult {
	p := l.Pipeline(Combo{Arch: "vgg", Dataset: "c10"})
	dep := mustDeploy(p.TB, l.measureDevice())
	var nodes []fleet.NodeConfig
	for _, name := range fleetDevices() {
		dev, err := tee.ByName(name)
		if err != nil {
			panic(err)
		}
		nodes = append(nodes, fleet.NodeConfig{Device: tee.Unbounded(dev), Workers: 2})
	}
	const (
		requests = 96
		clients  = 8
	)
	singles := p.Test.Batches(1, nil)
	var out []FleetPolicyResult
	for _, policy := range []fleet.Policy{fleet.RoundRobin(), fleet.LeastLoaded(), fleet.CostAware()} {
		l.logf("[fleet] driving %d requests through %q routing\n", requests, policy.Name())
		f, err := fleet.New(dep, fleet.Config{
			Nodes:    nodes,
			Policy:   policy,
			MaxBatch: 4,
			MaxDelay: time.Millisecond,
		})
		if err != nil {
			panic(err)
		}
		var wg sync.WaitGroup
		work := make(chan int)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					// Shedding cannot occur (no deadline, default cap ≥ the
					// client population); any error here is a real failure.
					if _, err := f.Infer(context.Background(), singles[i%len(singles)].X); err != nil {
						panic(err)
					}
				}
			}()
		}
		for i := 0; i < requests; i++ {
			work <- i
		}
		close(work)
		wg.Wait()
		st := f.Stats()
		f.Close()
		out = append(out, FleetPolicyResult{Policy: policy.Name(), Stats: st})
	}
	return out
}

// TableFleet renders the cross-policy × cross-device comparison: per policy,
// the fleet-wide modeled latency percentiles, aggregate throughput, and how
// much traffic the slow edge board absorbed.
func (l *Lab) TableFleet() *report.Table {
	t := &report.Table{
		Title: "Fleet: routing policies on a mixed rpi3+sgx-desktop+jetson-tz fleet (VGG18-S/SynthC10)",
		Header: []string{"Policy", "Requests", "Shed", "p50 (µs)", "p95 (µs)",
			"p99 (µs)", "Thpt (req/s)", "rpi3 share"},
		Device: "fleet",
	}
	for _, r := range l.FleetComparison() {
		var rpi3Share string
		for _, d := range r.Stats.PerDevice {
			if d.Name == "rpi3" && r.Stats.RoutingDecisions > 0 {
				rpi3Share = report.Pct(float64(d.Routed) / float64(r.Stats.RoutingDecisions))
			}
		}
		if r.Stats.PeakSecureBytes > t.PeakSecureBytes {
			t.PeakSecureBytes = r.Stats.PeakSecureBytes
		}
		t.AddRow(r.Policy,
			fmt.Sprintf("%d", r.Stats.Requests),
			fmt.Sprintf("%d", r.Stats.Shed),
			fmt.Sprintf("%.0f", r.Stats.P50Micros),
			fmt.Sprintf("%.0f", r.Stats.P95Micros),
			fmt.Sprintf("%.0f", r.Stats.P99Micros),
			fmt.Sprintf("%.1f", r.Stats.ModeledThroughput),
			rpi3Share,
		)
	}
	return t
}
