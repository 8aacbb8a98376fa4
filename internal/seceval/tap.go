package seceval

import (
	"math/rand"
	"sync"

	"tbnet/internal/tee"
)

// RunRecord is one serving run as the attacker saw it: which node and model
// pool executed it, how many coalesced samples it carried, and the
// (possibly obfuscated) attacker-visible event view.
type RunRecord struct {
	// Node is the fleet node that executed the run.
	Node string
	// Model is the model pool (tenant) the run served.
	Model string
	// Batch is the number of coalesced samples the run carried.
	Batch int
	// Events is the run's attacker view after the tap's obfuscation chain.
	Events []tee.Event
	// OverheadSeconds is the modeled obfuscation cost charged to this run.
	OverheadSeconds float64
}

// LayerStats aggregates one obfuscation layer's spend across all tapped runs.
type LayerStats struct {
	// Layer is the obfuscation layer's name ("pad:4096").
	Layer string `json:"layer"`
	// Runs counts the tapped runs the layer rewrote.
	Runs int `json:"runs"`
	// InjectedEvents counts events the layer added across all runs.
	InjectedEvents int `json:"injected_events"`
	// PaddedBytes counts bytes added to real payloads across all runs.
	PaddedBytes int64 `json:"padded_bytes"`
	// OverheadSeconds is the layer's total modeled device time.
	OverheadSeconds float64 `json:"overhead_seconds"`
}

// TapOption configures a Tap.
type TapOption func(*Tap)

// WithObfuscation installs an obfuscation chain: every tapped run's view is
// rewritten through it before recording, and the chain's modeled cost is
// returned to the serving layer as per-run overhead (so pacing, percentiles,
// and autoscaling all price the defense).
func WithObfuscation(chain *Chain) TapOption {
	return func(t *Tap) { t.chain = chain }
}

// WithRunLimit caps how many run records the tap retains (oldest kept);
// obfuscation overhead is still charged beyond the cap. n < 1 means
// unlimited.
func WithRunLimit(n int) TapOption {
	return func(t *Tap) { t.limit = n }
}

// WithSeed fixes the obfuscation RNG seed so captures replay
// deterministically.
func WithSeed(seed int64) TapOption {
	return func(t *Tap) { t.seed = seed }
}

// Tap is a trace-capture hook for the serving stack: plugged into
// fleet.Config.Tap (or per-node via ForNode into serve.Config.Tap), it
// receives exactly one attacker view per worker run — coalesced batches,
// co-tenant interleaving and all — optionally rewrites it through an
// obfuscation chain, and retains the records for offline attack replay.
// Safe for concurrent use by every worker in the fleet.
type Tap struct {
	chain *Chain
	limit int
	seed  int64

	mu      sync.Mutex
	rng     *rand.Rand
	runs    []RunRecord
	dropped int
	stats   []LayerStats
	totalOv float64
}

// NewTap builds a tap.
func NewTap(opts ...TapOption) *Tap {
	t := &Tap{seed: 1}
	for _, o := range opts {
		o(t)
	}
	t.rng = rand.New(rand.NewSource(t.seed))
	if t.chain != nil {
		t.stats = make([]LayerStats, len(t.chain.Layers))
		for i, l := range t.chain.Layers {
			t.stats[i].Layer = l.Name()
		}
	}
	return t
}

// TapRun implements fleet.RunTap.
func (t *Tap) TapRun(node string, device tee.Device, model string, batch int, view []tee.Event) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var overhead float64
	if t.chain != nil && len(t.chain.Layers) > 0 {
		var perLayer []Cost
		view, _, perLayer = t.chain.Apply(view, t.rng)
		for i, lc := range perLayer {
			s := lc.Seconds(device)
			t.stats[i].Runs++
			t.stats[i].InjectedEvents += lc.InjectedEvents
			t.stats[i].PaddedBytes += lc.PaddedBytes
			t.stats[i].OverheadSeconds += s
			overhead += s
		}
		t.totalOv += overhead
	}
	if t.limit > 0 && len(t.runs) >= t.limit {
		t.dropped++
		return overhead
	}
	t.runs = append(t.runs, RunRecord{
		Node: node, Model: model, Batch: batch,
		Events: view, OverheadSeconds: overhead,
	})
	return overhead
}

// serveTap adapts the fleet-shaped tap to serve.Config.Tap for single-server
// setups, pinning the node name.
type serveTap struct {
	t    *Tap
	node string
}

// TapRun implements serve.RunTap.
func (s serveTap) TapRun(device tee.Device, model string, batch int, view []tee.Event) float64 {
	return s.t.TapRun(s.node, device, model, batch, view)
}

// ForNode returns a serve-level tap view recording under the given node name.
func (t *Tap) ForNode(node string) interface {
	TapRun(device tee.Device, model string, batch int, view []tee.Event) float64
} {
	return serveTap{t: t, node: node}
}

// Runs returns a copy of the retained run records in completion order.
func (t *Tap) Runs() []RunRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]RunRecord, len(t.runs))
	copy(out, t.runs)
	return out
}

// TotalRuns counts every tapped run, including ones beyond the run limit.
func (t *Tap) TotalRuns() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.runs) + t.dropped
}

// OverheadStats returns the per-layer obfuscation spend (nil without a
// chain).
func (t *Tap) OverheadStats() []LayerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]LayerStats, len(t.stats))
	copy(out, t.stats)
	return out
}

// OverheadSeconds returns the total obfuscation overhead charged so far.
func (t *Tap) OverheadSeconds() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.totalOv
}
