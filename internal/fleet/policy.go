package fleet

import "sync/atomic"

// Load is the per-node snapshot a routing policy picks from: identity, pool
// width, live load probes, and the node's modeled single-sample latency. The
// slice handed to Pick is ordered like the fleet's attached devices and is
// rebuilt for every routing decision, so policies see live queue depths.
type Load struct {
	// Name is the node's device name (registry identity).
	Name string
	// Workers is the node's replica pool width.
	Workers int
	// QueueDepth is the number of requests waiting in the node's batch queue.
	QueueDepth int
	// InFlight is the number of requests being served on the node right now,
	// excluding the queued ones, so QueueDepth + InFlight is the node's total
	// backlog without double counting.
	InFlight int
	// SampleLatency is the node's modeled single-sample inference latency in
	// seconds, priced once from the plan when the model is hosted — the
	// cost-model signal that separates an rpi3-class edge device from a
	// server-class enclave.
	SampleLatency float64
}

// Policy routes one request to one node of the fleet. Pick returns the index
// of the chosen entry of loads (len(loads) ≥ 1); an out-of-range index is
// folded back into range by the fleet. Implementations must be safe for
// concurrent use — every in-flight Infer consults the policy.
type Policy interface {
	// Name is the policy's stable identity ("round-robin", "least-loaded",
	// "cost-aware"), carried into stats and artifacts.
	Name() string
	// Pick chooses a node index from the live load snapshot.
	Pick(loads []Load) int
}

// roundRobin cycles through the nodes in order, ignoring load and cost.
type roundRobin struct {
	next atomic.Uint64
}

// RoundRobin returns the baseline policy: requests cycle through the attached
// devices in order, regardless of queue depth or device speed. On a
// heterogeneous fleet its tail latency is pinned to the slowest device.
func RoundRobin() Policy { return &roundRobin{} }

func (p *roundRobin) Name() string { return "round-robin" }

func (p *roundRobin) Pick(loads []Load) int {
	return int((p.next.Add(1) - 1) % uint64(len(loads)))
}

// leastLoaded picks the node with the fewest waiting + in-flight requests.
type leastLoaded struct{}

// LeastLoaded returns the load-balancing policy: each request goes to the
// node with the smallest queue depth + in-flight count, ties broken by the
// lower modeled sample latency. It equalizes backlog but still sends traffic
// to slow devices whenever they are idle.
func LeastLoaded() Policy { return leastLoaded{} }

func (leastLoaded) Name() string { return "least-loaded" }

func (leastLoaded) Pick(loads []Load) int {
	best := 0
	for i := 1; i < len(loads); i++ {
		bi, bb := loads[i].QueueDepth+loads[i].InFlight, loads[best].QueueDepth+loads[best].InFlight
		if bi < bb || (bi == bb && loads[i].SampleLatency < loads[best].SampleLatency) {
			best = i
		}
	}
	return best
}

// costAware scores each node by its modeled latency scaled by backlog.
type costAware struct{}

// CostAware returns the device-cost-aware policy: each node is scored by its
// modeled single-sample latency multiplied by the number of pool-widths of
// backlog already ahead of the request, and the lowest score wins. Fast
// backends absorb traffic until their backlog makes the slow device's idle
// latency competitive, so an rpi3-class node on a mixed fleet only sees
// requests when the server-class nodes are saturated.
func CostAware() Policy { return costAware{} }

func (costAware) Name() string { return "cost-aware" }

func (costAware) Pick(loads []Load) int {
	best, bestScore := 0, score(loads[0])
	for i := 1; i < len(loads); i++ {
		if s := score(loads[i]); s < bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// score estimates the modeled time until this node would finish the request:
// its per-sample latency times the backlog (including the request itself)
// divided across the replica pool.
func score(l Load) float64 {
	return l.SampleLatency * float64(l.QueueDepth+l.InFlight+l.Workers) / float64(l.Workers)
}
