package fleet

import (
	"sort"
	"sync"
)

// DefaultEWMAAlpha is the estimator's smoothing factor: each observation
// moves the estimate 20% of the way to the new sample — reactive enough to
// notice a degraded device within a few dozen requests, damped enough that
// one slow batch does not reroute the fleet.
const DefaultEWMAAlpha = 0.2

// Estimate is one learned (model, node) latency cell of the estimator.
type Estimate struct {
	// Model is the hosted model the cell tracks.
	Model string `json:"model"`
	// Node is the fleet node (device identity) the cell tracks.
	Node string `json:"node"`
	// Seconds is the current exponentially-weighted per-sample service-time
	// estimate in seconds of wall time (host compute plus pacing).
	Seconds float64 `json:"seconds"`
	// Samples is the number of observations folded into the estimate.
	Samples int64 `json:"samples"`
}

type estCell struct {
	value   float64
	samples int64
}

type estKey struct{ model, node string }

// Estimator learns per-(model, node) service latency online: every
// successful protocol run reported by the serve layer's Observer hook folds
// its realized per-sample service time into an exponentially weighted moving
// average. Routing consults it in place of the construction-time probes, so
// a device that degrades after deployment — thermal throttling, a noisy
// co-tenant, paging pressure — sheds its traffic within a handful of
// requests instead of keeping its attractive day-one latency forever. The
// autoscaler reads the same cells to price marginal capacity per node.
//
// An Estimator is safe for concurrent use and is shared by every component
// of one fleet: serve workers write, routing and the controller read.
type Estimator struct {
	mu    sync.RWMutex
	cells map[estKey]*estCell
}

// NewEstimator returns an empty estimator smoothing with DefaultEWMAAlpha.
func NewEstimator() *Estimator {
	return &Estimator{cells: make(map[estKey]*estCell)}
}

// Observe folds one realized per-sample service time (seconds) into the
// (model, node) cell. The first observation seeds the cell directly.
func (e *Estimator) Observe(model, node string, seconds float64) {
	if seconds < 0 {
		return
	}
	k := estKey{model, node}
	e.mu.Lock()
	c := e.cells[k]
	if c == nil {
		c = &estCell{value: seconds}
		e.cells[k] = c
	} else {
		c.value += DefaultEWMAAlpha * (seconds - c.value)
	}
	c.samples++
	e.mu.Unlock()
}

// Estimate returns the current (model, node) estimate in seconds, and
// whether the cell has seen any observation at all — callers fall back to
// the construction-time probe when it has not.
func (e *Estimator) Estimate(model, node string) (float64, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	c := e.cells[estKey{model, node}]
	if c == nil {
		return 0, false
	}
	return c.value, true // Observe writes the cell under mu
}

// DropModel forgets every cell of one model — called when the model is
// removed fleet-wide (e.g. by the idle-model reaper).
func (e *Estimator) DropModel(model string) {
	e.mu.Lock()
	for k := range e.cells {
		if k.model == model {
			delete(e.cells, k)
		}
	}
	e.mu.Unlock()
}

// Snapshot returns every learned cell, sorted by model then node, for stats
// and the /metrics exposition.
func (e *Estimator) Snapshot() []Estimate {
	e.mu.RLock()
	out := make([]Estimate, 0, len(e.cells))
	for k, c := range e.cells {
		out = append(out, Estimate{Model: k.model, Node: k.node, Seconds: c.value, Samples: c.samples})
	}
	e.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Model != out[j].Model {
			return out[i].Model < out[j].Model
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// ewma is the adaptive routing policy built on the estimator's cells.
type ewma struct{}

// EWMA returns the adaptive routing policy: each node is scored by its
// learned per-sample service latency times its outstanding work (the
// PeakEWMA shape — latency × (backlog + 1) / workers), lowest score wins.
// A fleet routing with it keeps an online Estimator (see Config.Policy), so
// the latency figure is what each device is doing now rather than what it
// promised at construction; a node no run has reached yet is scored by its
// construction-time probe.
func EWMA() Policy { return ewma{} }

func (ewma) Name() string { return "ewma" }

func (ewma) Pick(loads []Load) int {
	best, bestScore := 0, ewmaScore(loads[0])
	for i := 1; i < len(loads); i++ {
		if s := ewmaScore(loads[i]); s < bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// ewmaScore prices a request at the node's latency estimate times the work
// ahead of it (itself included), spread over the replica pool.
func ewmaScore(l Load) float64 {
	return l.SampleLatency * float64(l.QueueDepth+l.InFlight+1) / float64(l.Workers)
}
