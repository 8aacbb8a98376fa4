// Package autoscale is TBNet's elastic capacity controller: a closed control
// loop that watches a serving fleet's live signals — per-node queue depth and
// in-flight work, and the shed counter — and resizes each node's worker pool
// live (fleet.ResizeNode) to track demand.
//
// The loop's contract mirrors the serving layer's elasticity rules rather
// than fighting them: every scale-up goes through the warm-then-drain
// generation swap, so widening a pool never drops a request, and a scale-up
// whose warm window does not fit the device's secure-memory budget is
// refused by the serve layer and recorded here — the controller never
// pressures a device past its SecureMemBytes envelope, it only spends the
// headroom the budget actually has.
//
// Decisions are deliberately boring: a per-node worker target proportional
// to outstanding work, a doubling bound per tick on the way up, hysteresis
// (several consecutive low ticks) plus at-most-halving on the way down — the
// same asymmetric aggressive-up / cautious-down shape production autoscalers
// converge on, because under-provisioning costs tail latency immediately
// while over-provisioning costs only worker-seconds.
package autoscale

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"tbnet/internal/core"
	"tbnet/internal/fleet"
)

// ErrConfig reports an invalid controller configuration.
var ErrConfig = errors.New("autoscale: invalid configuration")

// Action names one kind of scaling event.
type Action string

// The event kinds a controller emits.
const (
	// ScaleUp widened one node's worker pool.
	ScaleUp Action = "up"
	// ScaleDown narrowed one node's worker pool.
	ScaleDown Action = "down"
	// Refused records a scale-up the device's secure-memory budget rejected;
	// the node keeps its old width.
	Refused Action = "refused"
)

// Event is one scaling decision the controller actuated (or had refused).
type Event struct {
	// At is when the decision was made.
	At time.Time `json:"at"`
	// Node is the fleet node the decision concerns.
	Node string `json:"node"`
	// Action is the decision kind.
	Action Action `json:"action"`
	// From is the node's worker count before the decision.
	From int `json:"from"`
	// To is the node's worker count after the decision (equal to From for a
	// refused scale-up; the attempted width is in Reason).
	To int `json:"to"`
	// TotalWorkers is the fleet-wide provisioned worker count after the
	// decision.
	TotalWorkers int `json:"total_workers"`
	// Reason is the signal that drove the decision, human-readable.
	Reason string `json:"reason"`
}

// The loop's fixed tuning: the values every caller runs, constants because
// no caller needs another.
const (
	// targetBacklog is the outstanding work (queued + in service) tolerated
	// per provisioned worker before a pool widens: the request a worker
	// serves plus half a queued one. A backlog of one per worker is what a
	// right-sized pool looks like, so widening there chases noise; waiting
	// for two per worker lets queueing delay double before capacity arrives.
	targetBacklog = 1.5
	// scaleDownAfter is the number of consecutive below-target ticks before
	// a node narrows: the hysteresis that keeps a sine-shaped workload from
	// thrashing the pool, short enough (750ms at the default interval) that
	// idle capacity goes back within a second.
	scaleDownAfter = 3
	// eventBuffer bounds the in-memory event ring: a minute of history at
	// the default interval even if every tick acts, a few tens of KiB.
	eventBuffer = 256
)

// Config tunes the control loop. The zero value of any field selects its
// default. The loop drives from the fleet's DefaultModel: scaling acts on
// whole nodes, so one driving model suffices.
type Config struct {
	// Interval is the control-loop tick period (default 250ms).
	Interval time.Duration
	// Min is the per-node worker floor (default 1).
	Min int
	// Max is the per-node worker ceiling (default 8).
	Max int
	// Logger, when set, receives every event as it is recorded — the network
	// daemon's scaling log line hook. It is called from the control loop, so
	// it must not block.
	Logger func(Event)
}

func (c Config) withDefaults() Config {
	if c.Interval == 0 {
		c.Interval = 250 * time.Millisecond
	}
	if c.Min == 0 {
		c.Min = 1
	}
	if c.Max == 0 {
		c.Max = 8
	}
	return c
}

func (c Config) validate() error {
	if c.Interval < 0 {
		return fmt.Errorf("%w: negative interval %v", ErrConfig, c.Interval)
	}
	if c.Min < 1 {
		return fmt.Errorf("%w: min %d < 1", ErrConfig, c.Min)
	}
	if c.Max < c.Min {
		return fmt.Errorf("%w: max %d < min %d", ErrConfig, c.Max, c.Min)
	}
	return nil
}

// Stats is a point-in-time snapshot of the controller's counters.
type Stats struct {
	// Running reports whether the control loop is currently live.
	Running bool `json:"running"`
	// Ticks is the number of control-loop iterations completed.
	Ticks int64 `json:"ticks"`
	// ScaleUps, ScaleDowns count actuated resizes by direction.
	ScaleUps int64 `json:"scale_ups"`
	// ScaleDowns is the number of actuated pool narrowings.
	ScaleDowns int64 `json:"scale_downs"`
	// Refused is the number of scale-ups rejected by a device's
	// secure-memory budget.
	Refused int64 `json:"refused"`
	// Workers is the fleet's current provisioned worker total.
	Workers int `json:"workers"`
	// Min and Max echo the per-node bounds the loop enforces.
	Min int `json:"min"`
	// Max is the configured per-node worker ceiling.
	Max int `json:"max"`
	// Events are the most recent scaling events, oldest first.
	Events []Event `json:"events"`
}

// Controller runs the closed control loop over one fleet. Create one with
// New, launch it with Start, and stop it with Stop (idempotent; also invoked
// by the fleet's own Close/Drain when bound via fleet.BindController). All
// methods are safe for concurrent use.
type Controller struct {
	cfg Config
	f   *fleet.Fleet

	ticks   atomic.Int64
	ups     atomic.Int64
	downs   atomic.Int64
	refused atomic.Int64

	// mu guards the decision state below; the loop holds it across a tick,
	// Stats/Events hold it to snapshot the ring.
	mu       sync.Mutex
	events   []Event
	low      map[string]int // consecutive below-target ticks per node
	lastShed int64          // fleet shed counter at the previous tick

	running  atomic.Bool
	stopCh   chan struct{}
	doneCh   chan struct{}
	stopOnce sync.Once
}

// New builds a controller for f. The loop is not running yet — call Start
// (and usually f.BindController(c), so draining the fleet stops the loop
// first).
func New(f *fleet.Fleet, cfg Config) (*Controller, error) {
	if f == nil {
		return nil, fmt.Errorf("%w: nil fleet", ErrConfig)
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Controller{
		cfg:    cfg,
		f:      f,
		low:    make(map[string]int),
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
	}, nil
}

// Start launches the control loop; a second Start is a no-op. The loop runs
// until Stop.
func (c *Controller) Start() {
	if !c.running.CompareAndSwap(false, true) {
		return
	}
	go c.run()
}

// Stop terminates the control loop and waits for the in-flight tick to
// finish. It is idempotent and safe to call before Start (the loop then
// never runs) — the shape fleet.Stopper requires.
func (c *Controller) Stop() {
	c.stopOnce.Do(func() { close(c.stopCh) })
	if c.running.Load() {
		<-c.doneCh
	}
}

// run is the control loop: one tick per interval until stopped.
func (c *Controller) run() {
	defer close(c.doneCh)
	t := time.NewTicker(c.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case now := <-t.C:
			c.tick(now)
		}
	}
}

// tick runs one observe → decide → actuate pass. It is exported to tests via
// the package boundary only through Start's loop; unit tests in-package call
// it directly for deterministic single-step control.
func (c *Controller) tick(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ticks.Add(1)

	loads := c.f.NodeLoads(fleet.DefaultModel)
	shed := c.f.ShedTotal()
	shedDelta := shed - c.lastShed
	c.lastShed = shed

	for _, l := range loads {
		// Enough workers that each holds at most targetBacklog requests.
		target := int(math.Ceil(float64(l.QueueDepth+l.InFlight) / targetBacklog))
		c.decideNode(now, l, target, shedDelta)
	}
}

// decideNode applies the per-node rule: scale up immediately (bounded by
// doubling and Max), scale down only after scaleDownAfter consecutive low
// ticks and at most by half, and force an upward step when the fleet shed
// since the last tick.
func (c *Controller) decideNode(now time.Time, l fleet.Load, target int, shedDelta int64) {
	// Shedding is the loudest signal the fleet emits: demand already
	// exceeded admission. Whatever the backlog sample says, step up.
	if shedDelta > 0 && target <= l.Workers {
		target = l.Workers + 1
	}
	target = min(max(target, c.cfg.Min), c.cfg.Max)
	switch {
	case target > l.Workers:
		c.low[l.Name] = 0
		to := min(target, 2*l.Workers) // at most doubling per tick
		reason := fmt.Sprintf("pending %d > %g per worker", l.QueueDepth+l.InFlight, targetBacklog)
		if shedDelta > 0 {
			reason = fmt.Sprintf("shed %d since last tick", shedDelta)
		}
		c.resize(now, l.Name, l.Workers, to, reason)
	case target < l.Workers:
		c.low[l.Name]++
		if c.low[l.Name] < scaleDownAfter {
			return
		}
		c.low[l.Name] = 0
		to := max(target, l.Workers/2) // at most halving per step
		c.resize(now, l.Name, l.Workers, to,
			fmt.Sprintf("pending %d low for %d ticks", l.QueueDepth+l.InFlight, scaleDownAfter))
	default:
		c.low[l.Name] = 0
	}
}

// resize actuates one node's width change and records the outcome. A refusal
// by the device's secure-memory budget is an event and a counter, not an
// error — the fleet keeps the old width and the controller retries only when
// the signals still call for it.
func (c *Controller) resize(now time.Time, name string, from, to int, reason string) {
	err := c.f.ResizeNode(name, to)
	switch {
	case err == nil:
		if to > from {
			c.ups.Add(1)
			c.record(Event{At: now, Node: name, Action: ScaleUp, From: from, To: to,
				TotalWorkers: c.f.Workers(), Reason: reason})
		} else {
			c.downs.Add(1)
			c.record(Event{At: now, Node: name, Action: ScaleDown, From: from, To: to,
				TotalWorkers: c.f.Workers(), Reason: reason})
		}
	case errors.Is(err, core.ErrSecureMemory):
		c.refused.Add(1)
		c.record(Event{At: now, Node: name, Action: Refused, From: from, To: from,
			TotalWorkers: c.f.Workers(),
			Reason:       fmt.Sprintf("secure-memory budget refused %d→%d workers", from, to)})
	default:
		// The fleet is closing: the loop is about to stop, so there is
		// nothing to record.
	}
}

// record appends an event to the bounded ring (oldest dropped) and tees it
// to the configured Logger. Callers hold c.mu.
func (c *Controller) record(ev Event) {
	c.events = append(c.events, ev)
	if n := len(c.events) - eventBuffer; n > 0 {
		c.events = append(c.events[:0], c.events[n:]...)
	}
	if c.cfg.Logger != nil {
		c.cfg.Logger(ev)
	}
}

// Events returns the retained scaling events, oldest first.
func (c *Controller) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// Stats returns a snapshot of the controller's counters and recent events.
func (c *Controller) Stats() Stats {
	st := Stats{
		Running:    c.running.Load() && !c.stopped(),
		Ticks:      c.ticks.Load(),
		ScaleUps:   c.ups.Load(),
		ScaleDowns: c.downs.Load(),
		Refused:    c.refused.Load(),
		Workers:    c.f.Workers(),
		Min:        c.cfg.Min,
		Max:        c.cfg.Max,
	}
	st.Events = c.Events()
	return st
}

// stopped reports whether Stop has been requested.
func (c *Controller) stopped() bool {
	select {
	case <-c.stopCh:
		return true
	default:
		return false
	}
}
