package tbnet

import (
	"errors"
	"fmt"
	"time"

	"tbnet/internal/autoscale"
	"tbnet/internal/fleet"
)

// Fleet serves one or more named finalized models across a heterogeneous
// set of TEE devices — per-model replicated serving pools on every attached
// backend — routing every request through a pluggable policy, with admission
// control that sheds excess load instead of queueing it unboundedly. Create
// one with NewFleet; host further models at construction with WithModel or
// live with Fleet.AddModel, address them with Fleet.InferModel, and replace
// one's replicas without dropping a request with Fleet.SwapModel. See the
// fleet package documentation for the execution model.
type Fleet = fleet.Fleet

// DefaultModel is the name a Fleet's template deployment is hosted under;
// Infer routes to it.
const DefaultModel = fleet.DefaultModel

// FleetStats is an aggregated point-in-time snapshot of a Fleet: fleet-wide
// throughput and p50/p95/p99 modeled latency (merged across devices), shed
// and routing-decision counters, and the per-device and per-model
// breakdowns.
type FleetStats = fleet.Stats

// RoutingPolicy routes each fleet request to one attached device, picking
// from a live per-node load snapshot. Use the built-ins below or implement
// the interface for custom routing.
type RoutingPolicy = fleet.Policy

// NodeLoad is the per-device snapshot a RoutingPolicy picks from.
type NodeLoad = fleet.Load

// RoundRobin returns the baseline routing policy: requests cycle through the
// attached devices in order, regardless of load or device speed.
func RoundRobin() RoutingPolicy { return fleet.RoundRobin() }

// LeastLoaded returns the load-balancing policy: each request goes to the
// device with the fewest queued + in-flight requests.
func LeastLoaded() RoutingPolicy { return fleet.LeastLoaded() }

// CostAware returns the device-cost-aware policy: devices are scored by
// their modeled single-sample latency scaled by current backlog, so fast
// backends absorb traffic and slow edge boards only see requests once the
// fast ones are saturated.
func CostAware() RoutingPolicy { return fleet.CostAware() }

// EWMA returns the adaptive policy: a fleet routing with it learns each
// device's per-sample service time online — every served request folds its
// realized time into a per-(model, device) moving average with smoothing
// factor 0.2 — and scores devices by what they are doing now instead of what
// the construction-time probes promised.
func EWMA() RoutingPolicy { return fleet.EWMA() }

// Autoscaler is the elastic capacity controller a fleet built with
// WithAutoscale runs: a closed control loop that widens and narrows each
// node's worker pool from live load signals, always inside the device's
// secure-memory budget. Retrieve a fleet's controller with FleetAutoscaler.
type Autoscaler = autoscale.Controller

// AutoscaleStats is a point-in-time snapshot of an Autoscaler's counters and
// recent scaling events.
type AutoscaleStats = autoscale.Stats

// AutoscaleEvent is one scaling decision an Autoscaler actuated (or had
// refused by a device's secure-memory budget).
type AutoscaleEvent = autoscale.Event

// fleetOptions collects everything FleetOption can configure: the fleet's
// own config plus the optional autoscale controller riding on it.
type fleetOptions struct {
	cfg  fleet.Config
	auto *autoscale.Config
}

// autoOpts returns the autoscale config, allocating it on first use so any
// autoscale-flavoured option implies the controller.
func (o *fleetOptions) autoOpts() *autoscale.Config {
	if o.auto == nil {
		o.auto = &autoscale.Config{}
	}
	return o.auto
}

// FleetOption configures a Fleet built by NewFleet — its devices, models,
// routing, admission control, and optionally the autoscale controller that
// runs it elastically.
type FleetOption func(*fleetOptions) error

// WithDevice attaches a hardware backend — a DeviceByName result, a
// RegisterDevice cost model, or a wrapper such as Unbounded — to the fleet
// as one node with a replica pool of the given width. Each worker shares the
// deployed branches and owns its own enclave; all of a node's workers draw
// their secure-memory reservations from one device-sized budget, so an
// over-wide pool fails with ErrSecureMemory instead of overcommitting the
// modeled hardware. Repeat it to build a mixed fleet (attaching the same
// device twice creates two distinct nodes, reported as "name" and
// "name#2").
func WithDevice(d Device, workers int) FleetOption {
	return func(o *fleetOptions) error {
		if d == nil {
			return fmt.Errorf("%w: nil device", ErrBadOption)
		}
		if workers < 1 {
			return fmt.Errorf("%w: device %q workers %d < 1", ErrBadOption, d.Name(), workers)
		}
		o.cfg.Nodes = append(o.cfg.Nodes, fleet.NodeConfig{Device: d, Workers: workers})
		return nil
	}
}

// WithMaxBatch sets every node's micro-batch flush size (default 8). Every
// worker replica reserves secure memory for this batch capacity against its
// device's budget, so NewFleet fails with ErrSecureMemory if a pool's
// batched working set does not fit the device.
func WithMaxBatch(n int) FleetOption {
	return func(o *fleetOptions) error {
		if n < 1 {
			return fmt.Errorf("%w: max batch %d < 1", ErrBadOption, n)
		}
		o.cfg.MaxBatch = n
		return nil
	}
}

// WithMaxDelay sets how long an incomplete batch is held back for more
// traffic while a worker is idle. The default, 0, never holds one: batching
// is work-conserving — a lone request runs at once, and batches form only
// while every worker of its node is busy. A positive d trades that latency
// for coalescing at partial load; d must not be negative.
func WithMaxDelay(d time.Duration) FleetOption {
	return func(o *fleetOptions) error {
		if d < 0 {
			return fmt.Errorf("%w: negative max delay %v", ErrBadOption, d)
		}
		o.cfg.MaxDelay = d
		return nil
	}
}

// WithModel hosts an additional named model on every node of the fleet
// alongside the default model (the deployment passed to NewFleet, hosted as
// DefaultModel). Each model gets its own per-node replica pools, sharing
// every device's secure-memory budget with the other hosted models; requests
// address it through Fleet.InferModel and its replicas hot-swap through
// Fleet.SwapModel. Names must be unique and non-empty.
func WithModel(name string, dep *Deployment) FleetOption {
	return func(o *fleetOptions) error {
		if name == "" {
			return fmt.Errorf("%w: empty model name", ErrBadOption)
		}
		if dep == nil {
			return fmt.Errorf("%w: model %q has a nil deployment", ErrBadOption, name)
		}
		o.cfg.Models = append(o.cfg.Models, fleet.NamedModel{Name: name, Dep: dep})
		return nil
	}
}

// WithPolicy sets the routing policy (default RoundRobin()).
func WithPolicy(p RoutingPolicy) FleetOption {
	return func(o *fleetOptions) error {
		if p == nil {
			return fmt.Errorf("%w: nil routing policy", ErrBadOption)
		}
		o.cfg.Policy = p
		return nil
	}
}

// WithDeadline bounds each request's end-to-end time in the fleet, queueing
// included: a request not answered within d is shed with ErrOverloaded
// instead of queueing past its deadline.
func WithDeadline(d time.Duration) FleetOption {
	return func(o *fleetOptions) error {
		if d <= 0 {
			return fmt.Errorf("%w: deadline %v must be positive", ErrBadOption, d)
		}
		o.cfg.Deadline = d
		return nil
	}
}

// WithMaxInFlight caps the fleet-wide number of admitted, unanswered
// requests; admission beyond the cap sheds with ErrOverloaded. The default
// is capacity-weighted: four full batch waves per replica across the fleet.
func WithMaxInFlight(n int) FleetOption {
	return func(o *fleetOptions) error {
		if n < 1 {
			return fmt.Errorf("%w: max in-flight %d < 1", ErrBadOption, n)
		}
		o.cfg.MaxInFlight = n
		return nil
	}
}

// WithPace paces every node's workers in real time: each batch's modeled
// device latency, scaled by this factor, is spent as wall-clock service time
// before the batch's responses are released. Pacing turns the modeled device
// cost into real elapsed time, so fleet capacity scales with worker count on
// any host — the knob that makes autoscaling observable (and honest) on a
// machine that could otherwise serve the whole workload on one core.
func WithPace(scale float64) FleetOption {
	return func(o *fleetOptions) error {
		if scale < 0 {
			return fmt.Errorf("%w: pace scale %g < 0", ErrBadOption, scale)
		}
		o.cfg.PaceScale = scale
		return nil
	}
}

// FleetRunTap observes every worker run across the fleet: which node,
// device, and model pool executed it, how many coalesced samples it carried,
// and the attacker-visible event view of exactly that run. The returned
// overhead (modeled seconds, e.g. a trace-obfuscation layer's cost) is added
// to the run's service latency, so stats, pacing, and autoscaling price it.
// Implementations must be safe for concurrent use by every worker; the
// seceval package provides the capture/obfuscation implementation.
type FleetRunTap = fleet.RunTap

// WithFleetTap installs a run tap on every node of the fleet — the
// security-evaluation hook: each worker run's attacker-visible trace is
// handed to the tap with its node, model, and coalesced batch size.
func WithFleetTap(tap FleetRunTap) FleetOption {
	return func(o *fleetOptions) error {
		if tap == nil {
			return fmt.Errorf("%w: nil fleet tap", ErrBadOption)
		}
		o.cfg.Tap = tap
		return nil
	}
}

// WithAutoscale runs the fleet elastically: a closed-loop controller widens
// and narrows every node's worker pool between min and max from live load
// signals (queue depth, in-flight work, shed counters), scaling up
// immediately under pressure — at most doubling per tick, and never past a
// device's secure-memory budget — and down only after a sustained quiet
// stretch. The controller starts with the fleet and is stopped by the
// fleet's Close/Drain; retrieve it with FleetAutoscaler.
func WithAutoscale(min, max int) FleetOption {
	return func(o *fleetOptions) error {
		if min < 1 || max < min {
			return fmt.Errorf("%w: autoscale bounds [%d, %d]", ErrBadOption, min, max)
		}
		a := o.autoOpts()
		a.Min, a.Max = min, max
		return nil
	}
}

// WithAutoscaleInterval sets the controller's tick period (default 250ms).
// Shorter intervals track load faster at the cost of more frequent warm
// windows.
func WithAutoscaleInterval(d time.Duration) FleetOption {
	return func(o *fleetOptions) error {
		if d <= 0 {
			return fmt.Errorf("%w: autoscale interval %v must be positive", ErrBadOption, d)
		}
		o.autoOpts().Interval = d
		return nil
	}
}

// WithAutoscaleLogger tees every scaling event to fn as it happens — the
// network daemon's log hook. fn is called from the control loop and must not
// block.
func WithAutoscaleLogger(fn func(AutoscaleEvent)) FleetOption {
	return func(o *fleetOptions) error {
		if fn == nil {
			return fmt.Errorf("%w: nil autoscale logger", ErrBadOption)
		}
		o.autoOpts().Logger = fn
		return nil
	}
}

// FleetAutoscaler returns the elastic controller of a fleet built with
// WithAutoscale, or nil for a statically provisioned fleet.
func FleetAutoscaler(f *Fleet) *Autoscaler {
	if f == nil {
		return nil
	}
	c, _ := f.Controller().(*Autoscaler)
	return c
}

// NewFleet starts a heterogeneous serving fleet over a deployed model. The
// deployment is the replication template only — every attached device gets
// its own replica pool — so the caller keeps exclusive use of dep's session.
// With no WithDevice option the fleet serves on the template's own device
// with a pool of 2; a one-node fleet is how a single device is served. Stop
// the fleet with Fleet.Close.
//
//	f, err := tbnet.NewFleet(dep,
//	    tbnet.WithDevice(rpi3, 2), // Devices from DeviceByName
//	    tbnet.WithDevice(sgx, 4),
//	    tbnet.WithPolicy(tbnet.CostAware()),
//	    tbnet.WithDeadline(50*time.Millisecond),
//	)
//	...
//	label, err := f.Infer(ctx, x)
//	st := f.Stats() // per-device + fleet-wide throughput, p50/p95/p99, shed
//
// With WithAutoscale the fleet runs elastically: the returned fleet carries
// a live controller (FleetAutoscaler) that resizes its nodes from load, and
// Close/Drain stop the controller before tearing the fleet down.
func NewFleet(dep *Deployment, opts ...FleetOption) (*Fleet, error) {
	if dep == nil {
		return nil, fmt.Errorf("%w: nil deployment", ErrBadOption)
	}
	var o fleetOptions
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	if len(o.cfg.Nodes) == 0 {
		o.cfg.Nodes = []fleet.NodeConfig{{Device: dep.Device, Workers: 2}}
	}
	f, err := fleet.New(dep, o.cfg)
	if err != nil {
		if errors.Is(err, fleet.ErrConfig) {
			return nil, fmt.Errorf("%w: %w", ErrBadOption, err)
		}
		return nil, err
	}
	if o.auto != nil {
		ctl, err := autoscale.New(f, *o.auto)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("%w: %w", ErrBadOption, err)
		}
		f.BindController(ctl)
		ctl.Start()
	}
	return f, nil
}
