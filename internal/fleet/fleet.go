// Package fleet is TBNet's heterogeneous multi-device serving layer: one
// finalized model fanned out across a set of attached TEE devices, each
// backed by its own serve.Server pool, with traffic routed between them by a
// pluggable policy.
//
// A production deployment of the paper's system does not serve from one
// device: it owns a mix of edge boards (rpi3-class TrustZone), desktop
// enclaves (SGX), and confidential VMs whose latency and secure-memory
// profiles differ by orders of magnitude. On such a fleet the routing policy
// — not just per-device batching — determines end-to-end tail latency, so
// the policy is the pluggable degree of freedom here (see Policy and the
// RoundRobin / LeastLoaded / CostAware / EWMA built-ins).
//
// The fleet also owns admission control: a capacity-weighted in-flight cap
// and a per-request deadline. Load beyond either is shed immediately with a
// wrapped ErrOverloaded instead of queueing unboundedly — under sustained
// overload a bounded queue with fast failure beats an unbounded one whose
// every request eventually misses its deadline.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tbnet/internal/core"
	"tbnet/internal/obs"
	"tbnet/internal/serve"
	"tbnet/internal/tee"
	"tbnet/internal/tensor"
)

// ErrOverloaded is returned by Infer and InferModel when admission control
// sheds the request: the fleet-wide in-flight cap is reached, or the
// per-request deadline expired before a device answered.
var ErrOverloaded = errors.New("fleet overloaded")

// ErrConfig reports an invalid fleet configuration.
var ErrConfig = errors.New("invalid fleet configuration")

// ErrDraining is returned by the inference entry points once Drain has begun:
// the fleet is finishing its in-flight requests and will not admit new ones.
// Unlike ErrOverloaded the condition is terminal — the fleet is shutting
// down, not momentarily busy — so network front ends map it to a
// service-unavailable answer that tells clients to retry against another
// instance.
var ErrDraining = errors.New("fleet draining")

// DefaultModel is the name the fleet's template deployment is hosted under;
// Infer routes to it.
const DefaultModel = serve.DefaultModel

// NodeConfig attaches one device to the fleet.
type NodeConfig struct {
	// Device is the hardware backend this node serves on.
	Device tee.Device
	// Workers is the node's replica pool width (default 2).
	Workers int
}

// NamedModel attaches an additional named model to every node of the fleet
// at construction time (the template deployment passed to New is always
// hosted as DefaultModel).
type NamedModel struct {
	// Name is the model's serving identity, addressed by InferModel and
	// SwapModel.
	Name string
	// Dep is the deployment template; it is replicated onto every attached
	// device, so it may come from any backend.
	Dep *core.Deployment
}

// Config sizes the fleet. The zero value of any field selects its default.
type Config struct {
	// Nodes are the attached devices; at least one is required.
	Nodes []NodeConfig
	// Models are additional named models hosted on every node alongside the
	// DefaultModel template. Names must be unique and must not collide with
	// DefaultModel.
	Models []NamedModel
	// Policy routes each request to a node (default RoundRobin()). EWMA()
	// also gives the fleet its online latency Estimator: every protocol run
	// feeds it, and routing scores nodes with its learned figures in place
	// of the modeled ones priced at construction, so it adapts when a device
	// degrades after deployment.
	Policy Policy
	// Deadline bounds each request's end-to-end time in the fleet, queueing
	// included; a request not answered within it is shed with ErrOverloaded.
	// 0 means no deadline.
	Deadline time.Duration
	// MaxInFlight caps the fleet-wide number of admitted, unanswered
	// samples; admission beyond it sheds with ErrOverloaded. 0 selects the
	// capacity-weighted default 4 × Σ(workers × MaxBatch) — four full batch
	// waves per replica — and a negative value disables the cap.
	MaxInFlight int
	// MaxBatch is every node's micro-batch flush size (default 8).
	MaxBatch int
	// MaxDelay is how long every node holds an incomplete micro-batch back
	// for companions while a worker is idle (see serve.Config.MaxDelay). The
	// zero value (the default) never does: batching is work-conserving.
	MaxDelay time.Duration
	// PaceScale paces every node's workers in real time: each batch's
	// modeled device latency, scaled by this factor, is spent as wall-clock
	// service time (see serve.Config.PaceScale). 0 disables pacing.
	PaceScale float64
	// Tracer, when set, is handed to every node's server so each request's
	// span timeline (queue wait, batch formation, per-world execution,
	// pacing) lands in one shared bounded ring; the fleet layer itself
	// annotates each span with the node the request was routed to. Nil
	// disables tracing.
	Tracer *obs.Tracer
	// Tap, when set, receives the attacker-visible trace view of every
	// protocol run on every node — the security-evaluation capture point for
	// multi-tenant fleet traces (see serve.Config.Tap). Each node's server
	// calls it with the node name bound, so one tap observes the whole
	// fleet's per-tenant event streams. The returned overhead per run (a
	// trace-obfuscation layer's modeled cost) is charged to that run's
	// recorded latency. Must be safe for concurrent use by every worker of
	// every node.
	Tap RunTap
}

// RunTap observes one protocol run's attacker-visible trace view fleet-wide:
// serve.RunTap with the serving node's name prepended. Implementations must
// be safe for concurrent use.
type RunTap interface {
	// TapRun receives one run's attacker view with the serving node bound;
	// the returned overhead in modeled device seconds is folded into the
	// run's latency.
	TapRun(node string, device tee.Device, model string, batch int, view []tee.Event) (overheadSec float64)
}

// nodeTap adapts the fleet-wide RunTap to one node's serve.RunTap by binding
// the node name.
type nodeTap struct {
	tap  RunTap
	node string
}

// TapRun implements serve.RunTap.
func (t nodeTap) TapRun(device tee.Device, model string, batch int, view []tee.Event) float64 {
	return t.tap.TapRun(t.node, device, model, batch, view)
}

func (c Config) withDefaults() Config {
	if c.Policy == nil {
		c.Policy = RoundRobin()
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 8
	}
	nodes := make([]NodeConfig, len(c.Nodes))
	copy(nodes, c.Nodes)
	for i := range nodes {
		if nodes[i].Workers == 0 {
			nodes[i].Workers = 2
		}
	}
	c.Nodes = nodes
	if c.MaxInFlight == 0 {
		for _, n := range c.Nodes {
			c.MaxInFlight += 4 * n.Workers * c.MaxBatch
		}
	}
	return c
}

func (c Config) validate() error {
	if len(c.Nodes) == 0 {
		return fmt.Errorf("%w: no devices attached", ErrConfig)
	}
	for i, n := range c.Nodes {
		if n.Device == nil {
			return fmt.Errorf("%w: node %d has a nil device", ErrConfig, i)
		}
		if n.Workers < 1 {
			return fmt.Errorf("%w: node %d (%s) workers %d < 1", ErrConfig, i, n.Device.Name(), n.Workers)
		}
	}
	seen := map[string]bool{DefaultModel: true}
	for i, m := range c.Models {
		if m.Name == "" {
			return fmt.Errorf("%w: model %d has an empty name", ErrConfig, i)
		}
		if m.Dep == nil {
			return fmt.Errorf("%w: model %q has a nil deployment", ErrConfig, m.Name)
		}
		if seen[m.Name] {
			return fmt.Errorf("%w: duplicate model name %q", ErrConfig, m.Name)
		}
		seen[m.Name] = true
	}
	if c.Deadline < 0 {
		return fmt.Errorf("%w: negative deadline %v", ErrConfig, c.Deadline)
	}
	if c.MaxBatch < 1 {
		return fmt.Errorf("%w: max batch %d < 1", ErrConfig, c.MaxBatch)
	}
	if c.MaxDelay < 0 {
		return fmt.Errorf("%w: negative max delay %v", ErrConfig, c.MaxDelay)
	}
	if c.PaceScale < 0 {
		return fmt.Errorf("%w: negative pace scale %v", ErrConfig, c.PaceScale)
	}
	return nil
}

// node is one attached device: its multi-model server and fleet-side load
// counters.
type node struct {
	name   string
	device tee.Device
	srv    *serve.Server

	// resizeMu serializes fleet-level resizes of this node, so concurrent
	// controllers cannot interleave width changes and misaccount the
	// worker-seconds clock.
	resizeMu sync.Mutex

	// lat maps each hosted model name to its modeled single-sample latency
	// on this device, priced from the plan when the model is added (or
	// swapped), so cost-aware routing needs no warm-up traffic. Every node
	// holds the same key set, the fleet's hosted models. Guarded by the
	// fleet's modelMu.
	lat map[string]float64

	routed atomic.Int64 // routing decisions sent here
	shed   atomic.Int64 // deadline sheds attributed to this node
}

// Fleet serves one or more named finalized models across a heterogeneous set
// of devices, routing each request through the configured policy. Create one
// with New; it is safe for concurrent use. Models can be added (AddModel)
// and hot-swapped (SwapModel) while the fleet serves.
type Fleet struct {
	cfg Config

	// nodes is set by New and never changes, so it is read without a lock.
	nodes []*node

	// modelMu guards the hosted-model name list and the nodes' per-model
	// latency maps.
	modelMu sync.RWMutex
	names   []string

	// est is the online latency estimator, present exactly when the policy
	// is EWMA().
	est *Estimator

	// clock integrates provisioned workers over wall time — the fleet's
	// worker-seconds ledger, the cost side of the autoscaling acceptance.
	clock workerClock

	// ctl is the bound autoscale controller (a Stopper), stopped on
	// Close/Drain so the control loop cannot outlive its fleet.
	ctl atomic.Value

	inflight  atomic.Int64
	shedTotal atomic.Int64
	draining  atomic.Bool
	closed    atomic.Bool
	closeOnce sync.Once
	drained   chan struct{}
	start     time.Time
}

// Stopper is the shutdown handle BindController accepts — the autoscale
// controller's Stop, without the fleet importing the autoscale package.
type Stopper interface {
	// Stop terminates the bound control loop and waits for it to exit; it
	// must be idempotent.
	Stop()
}

// workerClock integrates the fleet's provisioned worker count over wall
// time. Every resize closes the running segment at the old width and opens
// one at the new, so Total is exact piecewise-constant integration, not
// sampling.
type workerClock struct {
	mu      sync.Mutex
	at      time.Time
	workers int
	accum   float64
	stopped bool
}

func (c *workerClock) init(workers int) {
	c.mu.Lock()
	c.at, c.workers = time.Now(), workers
	c.mu.Unlock()
}

// add closes the running segment and shifts the provisioned width by delta.
func (c *workerClock) add(delta int) {
	now := time.Now()
	c.mu.Lock()
	if !c.stopped {
		c.accum += float64(c.workers) * now.Sub(c.at).Seconds()
		c.at = now
		c.workers += delta
	}
	c.mu.Unlock()
}

// stop freezes the ledger at fleet shutdown.
func (c *workerClock) stop() {
	now := time.Now()
	c.mu.Lock()
	if !c.stopped {
		c.accum += float64(c.workers) * now.Sub(c.at).Seconds()
		c.stopped = true
	}
	c.mu.Unlock()
}

// total reads the ledger including the running segment.
func (c *workerClock) total() float64 {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return c.accum
	}
	return c.accum + float64(c.workers)*now.Sub(c.at).Seconds()
}

// New builds a fleet from a deployed template: the template's finalized
// model is replicated onto every attached device as the DefaultModel (the
// caller keeps exclusive use of the template's own session), and every
// cfg.Models entry is hosted alongside it. Each (model, node) pair's modeled
// single-sample latency is priced once here from the replica's plan, so
// cost-aware routing needs no warm-up traffic.
func New(dep *core.Deployment, cfg Config) (*Fleet, error) {
	if dep == nil {
		return nil, fmt.Errorf("%w: nil deployment", ErrConfig)
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	f := &Fleet{
		cfg:     cfg,
		names:   []string{DefaultModel},
		drained: make(chan struct{}),
		start:   time.Now(),
	}
	if _, ok := cfg.Policy.(ewma); ok {
		f.est = NewEstimator()
	}
	totalWorkers := 0
	for i, nc := range cfg.Nodes {
		name := nodeName(nc.Device.Name(), f.nodes)
		n, err := f.buildNode(name, nc.Device, nc.Workers, dep)
		if err != nil {
			f.closeNodes()
			return nil, fmt.Errorf("fleet: starting node %d (%s): %w", i, name, err)
		}
		f.nodes = append(f.nodes, n)
		totalWorkers += nc.Workers
	}
	f.clock.init(totalWorkers)
	for _, m := range cfg.Models {
		if err := f.AddModel(m.Name, m.Dep); err != nil {
			f.closeNodes()
			return nil, fmt.Errorf("fleet: hosting model %q: %w", m.Name, err)
		}
	}
	return f, nil
}

// buildNode replicates dep onto device, prices its latency there (priceOn)
// and starts the node's server with the fleet-wide serving knobs, wiring the
// estimator's observation hook when the fleet has one.
func (f *Fleet) buildNode(name string, device tee.Device, workers int, dep *core.Deployment) (*node, error) {
	template, lat, err := priceOn(dep, device)
	if err != nil {
		return nil, err
	}
	scfg := serve.Config{
		Workers:   workers,
		MaxBatch:  f.cfg.MaxBatch,
		MaxDelay:  f.cfg.MaxDelay,
		PaceScale: f.cfg.PaceScale,
		Tracer:    f.cfg.Tracer,
	}
	if tap := f.cfg.Tap; tap != nil {
		scfg.Tap = nodeTap{tap: tap, node: name}
	}
	if est := f.est; est != nil {
		scfg.Observer = func(model string, samples int, perSample time.Duration) {
			est.Observe(model, name, perSample.Seconds())
		}
	}
	srv, err := serve.New(template, scfg)
	if err != nil {
		return nil, err
	}
	return &node{
		name:   name,
		device: device,
		srv:    srv,
		lat:    map[string]float64{DefaultModel: lat},
	}, nil
}

// nodeName returns the identity of the next node built on device: the
// device name itself for its first node, "name#k" for its k-th.
func nodeName(device string, earlier []*node) string {
	k := 1
	for _, n := range earlier {
		if n.device.Name() == device {
			k++
		}
	}
	if k == 1 {
		return device
	}
	return fmt.Sprintf("%s#%d", device, k)
}

// priceOn replicates dep onto device (a fresh single-sample session) and
// prices its modeled single-sample latency from the replica's plan
// (core.Deployment.ModeledLatency); no inference runs. The returned template
// is suitable as a serve replication template or AddModel source.
func priceOn(dep *core.Deployment, device tee.Device) (*core.Deployment, float64, error) {
	template, err := dep.ReplicateOn(device, 1, nil)
	if err != nil {
		return nil, 0, err
	}
	return template, template.ModeledLatency(1), nil
}

// AddModel hosts a further named model on every node of the fleet, pricing
// its per-device latency for cost-aware routing. Attachment is
// all-or-nothing: if any node cannot host the model — most commonly because
// the pool does not fit the device's remaining secure-memory budget — the
// nodes already updated detach it again, so a failed AddModel leaves the
// name free for a retry.
func (f *Fleet) AddModel(name string, dep *core.Deployment) error {
	if dep == nil {
		return fmt.Errorf("%w: nil deployment", ErrConfig)
	}
	if f.closed.Load() {
		return serve.ErrClosed
	}
	f.modelMu.Lock()
	defer f.modelMu.Unlock()
	for _, n := range f.names {
		if n == name {
			return fmt.Errorf("%w: %q", serve.ErrModelExists, name)
		}
	}
	for i, n := range f.nodes {
		template, lat, err := priceOn(dep, n.device)
		if err == nil {
			err = n.srv.AddModel(name, template)
		}
		if err != nil {
			for _, prev := range f.nodes[:i] {
				prev.srv.RemoveModel(name) // best-effort unwind
				delete(prev.lat, name)
			}
			return fmt.Errorf("fleet: node %s: %w", n.name, err)
		}
		n.lat[name] = lat
	}
	f.names = append(f.names, name)
	return nil
}

// SwapModel hot-swaps the named model on every node concurrently, each node
// following the serve layer's warm-then-drain protocol, so no in-flight or
// queued request is dropped anywhere in the fleet. It returns once every
// node's old replicas have drained; after that, every response for this
// model fleet-wide comes from dep's weights. Per-node failures are joined
// into the returned error — a node that fails (e.g. no secure-memory
// headroom for the warm window) keeps serving the old model.
func (f *Fleet) SwapModel(name string, dep *core.Deployment) error {
	if dep == nil {
		return fmt.Errorf("%w: nil deployment", ErrConfig)
	}
	if f.closed.Load() {
		return serve.ErrClosed
	}
	errs := make([]error, len(f.nodes))
	lats := make([]float64, len(f.nodes))
	var wg sync.WaitGroup
	for i, n := range f.nodes {
		wg.Add(1)
		go func(i int, n *node) {
			defer wg.Done()
			template, lat, err := priceOn(dep, n.device)
			if err != nil {
				errs[i] = fmt.Errorf("fleet: node %s: %w", n.name, err)
				return
			}
			if err := n.srv.SwapModel(name, template); err != nil {
				errs[i] = fmt.Errorf("fleet: node %s: %w", n.name, err)
				return
			}
			lats[i] = lat
		}(i, n)
	}
	wg.Wait()
	f.modelMu.Lock()
	for i, n := range f.nodes {
		// A RemoveModel that raced the swap has deleted the entry; keep it
		// gone.
		if _, hosted := n.lat[name]; hosted && errs[i] == nil {
			n.lat[name] = lats[i]
		}
	}
	f.modelMu.Unlock()
	return errors.Join(errs...)
}

// RemoveModel stops hosting a named model on every node of the fleet:
// admission for it stops, each node's queued requests drain through its
// workers, and the pools' secure-memory reservations return to their device
// budgets — the reclamation path an idle-model reaper calls. The default
// model cannot be removed; unknown names fail with serve.ErrUnknownModel.
// In-flight requests for the model complete normally.
func (f *Fleet) RemoveModel(name string) error {
	if f.closed.Load() {
		return serve.ErrClosed
	}
	if name == DefaultModel {
		return fmt.Errorf("%w: cannot remove the default model", ErrConfig)
	}
	f.modelMu.Lock()
	found := false
	for i, n := range f.names {
		if n == name {
			f.names = append(f.names[:i], f.names[i+1:]...)
			found = true
			break
		}
	}
	if !found {
		f.modelMu.Unlock()
		return fmt.Errorf("%w: %q", serve.ErrUnknownModel, name)
	}
	for _, n := range f.nodes {
		delete(n.lat, name)
	}
	f.modelMu.Unlock()
	if f.est != nil {
		f.est.DropModel(name)
	}
	// Drain the per-node pools outside the lock — each RemoveModel blocks
	// until its pool's queue has flushed — and in parallel, like SwapModel.
	errs := make([]error, len(f.nodes))
	var wg sync.WaitGroup
	for i, n := range f.nodes {
		wg.Add(1)
		go func(i int, n *node) {
			defer wg.Done()
			if err := n.srv.RemoveModel(name); err != nil {
				errs[i] = fmt.Errorf("fleet: node %s: %w", n.name, err)
			}
		}(i, n)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Models returns the hosted model names in hosting order (DefaultModel
// first).
func (f *Fleet) Models() []string {
	f.modelMu.RLock()
	defer f.modelMu.RUnlock()
	return append([]string(nil), f.names...)
}

// SampleShape returns the [1,C,H,W] single-sample input shape a hosted model
// serves (every node hosts the same model template, so the shape is
// fleet-wide); unknown names fail with serve.ErrUnknownModel.
func (f *Fleet) SampleShape(model string) ([]int, error) {
	return f.nodes[0].srv.SampleShape(model)
}

// closeNodes tears down the servers started so far (construction failure).
func (f *Fleet) closeNodes() {
	for _, n := range f.nodes {
		n.srv.Close()
	}
}

// loadOf probes one node's live Load entry for a request addressed to model;
// lat is the latency figure routing should price the node at.
func loadOf(n *node, lat float64) Load {
	// The server probes overlap — InFlight counts queued + in-service
	// samples — so split them: policies sum the two fields without
	// double-counting queued samples.
	queued := n.srv.QueueDepth()
	serving := int(n.srv.InFlight()) - queued
	if serving < 0 {
		serving = 0
	}
	return Load{
		Name:          n.name,
		Workers:       n.srv.Workers(),
		QueueDepth:    queued,
		InFlight:      serving,
		SampleLatency: lat,
	}
}

// loads builds the policy's snapshot for model over every node,
// substituting the online estimator's learned latencies for the modeled
// ones priced at construction wherever a cell has observations. hosted
// reports whether the fleet hosts model, read under the same model lock.
func (f *Fleet) loads(model string) (out []Load, hosted bool) {
	lats := make([]float64, len(f.nodes))
	f.modelMu.RLock()
	_, hosted = f.nodes[0].lat[model]
	for i, n := range f.nodes {
		lats[i] = n.lat[model]
	}
	f.modelMu.RUnlock()
	if f.est != nil {
		for i, n := range f.nodes {
			if v, ok := f.est.Estimate(model, n.name); ok {
				lats[i] = v
			}
		}
	}
	out = make([]Load, len(f.nodes))
	for i, n := range f.nodes {
		out[i] = loadOf(n, lats[i])
	}
	return out, hosted
}

// route consults the policy with a live load snapshot and returns the chosen
// node for a request addressed to model. A model the fleet does not host
// returns nil before the policy is asked, so no node counts it as routed. An
// out-of-range pick is folded back into range, so a buggy policy degrades to
// a skewed distribution rather than a panic.
func (f *Fleet) route(model string) *node {
	loads, hosted := f.loads(model)
	if !hosted {
		return nil
	}
	idx := f.cfg.Policy.Pick(loads)
	if idx < 0 || idx >= len(f.nodes) {
		idx = ((idx % len(f.nodes)) + len(f.nodes)) % len(f.nodes)
	}
	n := f.nodes[idx]
	n.routed.Add(1)
	return n
}

// NodeLoads returns the same live per-node load snapshot routing sees for
// model (estimator-adjusted latencies included) — the autoscale controller's
// per-tick signal probe.
func (f *Fleet) NodeLoads(model string) []Load {
	loads, _ := f.loads(model)
	return loads
}

// admit applies fleet-wide admission control to k samples; an admitted
// call gives their slots back when it resolves. A false admission shed them,
// and inflight reports the load observed at the shed decision.
func (f *Fleet) admit(k int64) (inflight int64, ok bool) {
	n := f.inflight.Add(k)
	if max := int64(f.cfg.MaxInFlight); max > 0 && n > max {
		f.inflight.Add(-k)
		f.shedTotal.Add(k)
		return n - k, false
	}
	return n, true
}

// Infer routes one sample ([C,H,W] or [1,C,H,W]) for the default model to a
// device chosen by the policy and returns its label. Requests beyond the
// in-flight cap, or not answered within the configured deadline, are shed
// with a wrapped ErrOverloaded; after Close it fails with serve.ErrClosed.
// The caller must not mutate x until Infer returns.
func (f *Fleet) Infer(ctx context.Context, x *tensor.Tensor) (int, error) {
	return f.InferModel(ctx, DefaultModel, x)
}

// InferModel is Infer addressed to a named hosted model; unknown names fail
// with serve.ErrUnknownModel. It is InferBatch of one sample.
func (f *Fleet) InferModel(ctx context.Context, model string, x *tensor.Tensor) (int, error) {
	var label [1]int
	var errs [1]error
	if err := f.InferBatch(ctx, model, x, label[:], errs[:]); err != nil {
		return 0, err
	}
	return label[0], errs[0]
}

// InferBatch classifies the k samples of x ([k,C,H,W], 1 ≤ k ≤ MaxBatch; a
// lone [C,H,W] sample is k = 1) with a hosted model as one call: admission
// counts its k samples, the policy routes them once, and the chosen node
// queues them as one entry, so a worker runs them in one protocol run.
// Sample i's label lands in labels[i] and its failure in errs[i] (see
// serve.Server.InferBatch; both slices must hold k entries). A non-nil
// return is the whole call's and counts for all k samples: a shed (wrapped
// ErrOverloaded, from the in-flight cap or the deadline), a draining or
// closed fleet, an unknown model, a bad shape or an ended context. The
// caller must not mutate x until InferBatch returns.
func (f *Fleet) InferBatch(ctx context.Context, model string, x *tensor.Tensor, labels []int, errs []error) error {
	if f.closed.Load() {
		return serve.ErrClosed
	}
	if f.draining.Load() {
		return fmt.Errorf("fleet: %w", ErrDraining)
	}
	k := int64(1)
	if x != nil && x.Rank() == 4 {
		k = int64(x.Dim(0))
	}
	inflight, ok := f.admit(k)
	if !ok {
		return fmt.Errorf("fleet: %d samples in flight (cap %d): %w",
			inflight, f.cfg.MaxInFlight, ErrOverloaded)
	}
	defer f.inflight.Add(-k)
	n := f.route(model)
	if n == nil {
		return fmt.Errorf("fleet: %w: %q", serve.ErrUnknownModel, model)
	}
	// Annotate the request span (if the ingress attached one) with the
	// routing decision; the serve layer fills in the rest of the timeline.
	obs.FromContext(ctx).SetNode(n.name)
	reqCtx := ctx
	if f.cfg.Deadline > 0 {
		var cancel context.CancelFunc
		reqCtx, cancel = context.WithTimeout(ctx, f.cfg.Deadline)
		defer cancel()
	}
	err := n.srv.InferBatch(reqCtx, model, x, labels, errs)
	if err != nil && f.cfg.Deadline > 0 && errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
		// The fleet's own deadline expired (not the caller's context): that
		// is load shedding, not a caller error.
		n.shed.Add(k)
		f.shedTotal.Add(k)
		return fmt.Errorf("fleet: deadline %v exceeded on %s: %w", f.cfg.Deadline, n.name, ErrOverloaded)
	}
	return err
}

// ResizeNode changes one node's worker pool width live, through the serve
// layer's warm-then-drain generation swap: the new width is replicated and
// warmed while the old pool keeps serving, so not one request is dropped. A
// scale-up whose warm window does not fit the device's secure-memory budget
// is refused with ErrSecureMemory (wrapped) and the node keeps its old width
// — the hot-swap headroom rule applied to elasticity. Unknown node names
// fail with ErrConfig. On success the fleet's worker-seconds ledger shifts to
// the new width.
func (f *Fleet) ResizeNode(name string, workers int) error {
	if f.closed.Load() {
		return serve.ErrClosed
	}
	if workers < 1 {
		return fmt.Errorf("%w: workers %d < 1", ErrConfig, workers)
	}
	n := f.nodeByName(name)
	if n == nil {
		return fmt.Errorf("%w: no node %q", ErrConfig, name)
	}
	n.resizeMu.Lock()
	defer n.resizeMu.Unlock()
	old := n.srv.Workers()
	if workers == old {
		return nil
	}
	if err := n.srv.Resize(workers); err != nil {
		return fmt.Errorf("fleet: resizing node %s: %w", name, err)
	}
	f.clock.add(workers - old)
	return nil
}

// nodeByName resolves a node by identity.
func (f *Fleet) nodeByName(name string) *node {
	for _, n := range f.nodes {
		if n.name == name {
			return n
		}
	}
	return nil
}

// Devices returns the number of attached nodes — the liveness probe's
// figure, read without building a Stats snapshot.
func (f *Fleet) Devices() int { return len(f.nodes) }

// Batching returns the micro-batching policy every node runs: the flush size
// and how long an incomplete batch is held back for companions (0 means
// work-conserving; see Config.MaxDelay).
func (f *Fleet) Batching() (maxBatch int, linger time.Duration) {
	return f.cfg.MaxBatch, f.cfg.MaxDelay
}

// MaxInFlight returns the fleet-wide admission cap in force (Config.MaxInFlight
// with its default applied); 0 or less means admission is unbounded.
func (f *Fleet) MaxInFlight() int { return f.cfg.MaxInFlight }

// Workers returns the fleet's current total provisioned worker count.
func (f *Fleet) Workers() int {
	total := 0
	for _, n := range f.nodes {
		total += n.srv.Workers()
	}
	return total
}

// WorkerSeconds returns the integral of the fleet's provisioned worker count
// over wall time since construction — the cost side of the autoscaling
// trade: a fleet that holds 4 workers for 10 seconds has spent 40
// worker-seconds whether or not they served anything.
func (f *Fleet) WorkerSeconds() float64 { return f.clock.total() }

// Estimates returns the online latency estimator's learned (model, node)
// cells, or nil when the fleet does not route with EWMA() and so runs on
// construction-time modeled latencies only.
func (f *Fleet) Estimates() []Estimate {
	if f.est == nil {
		return nil
	}
	return f.est.Snapshot()
}

// ShedTotal returns the cumulative number of samples shed by admission
// control or the fleet deadline — the autoscale controller's overload
// signal.
func (f *Fleet) ShedTotal() int64 { return f.shedTotal.Load() }

// BindController attaches an autoscale controller's shutdown handle to the
// fleet: Close and Drain stop it before tearing nodes down, so a control
// loop can never resize a dying fleet. Binding nil detaches.
func (f *Fleet) BindController(s Stopper) { f.ctl.Store(&s) }

// Controller returns the bound autoscale controller (the Stopper passed to
// BindController), or nil — network front ends use it to discover the
// fleet's controller for observability.
func (f *Fleet) Controller() Stopper {
	if p, ok := f.ctl.Load().(*Stopper); ok && p != nil {
		return *p
	}
	return nil
}

// stopController stops the bound controller, if any, exactly as many times
// as it tolerates (Stop is idempotent by contract).
func (f *Fleet) stopController() {
	if c := f.Controller(); c != nil {
		c.Stop()
	}
}

// Drain gracefully shuts the fleet down: admission stops immediately (new
// inference requests fail with a wrapped ErrDraining), every already-admitted
// request is allowed to finish, and the fleet then closes. It returns nil
// once the fleet is fully drained and closed. If ctx expires first, Drain
// returns the context's error with the fleet still open but refusing
// admission — the caller decides whether to hard-Close and drop the
// stragglers. Drain is safe to call concurrently with traffic; a Drain after
// Close (or a second Drain) just waits for the existing shutdown.
func (f *Fleet) Drain(ctx context.Context) error {
	f.draining.Store(true)
	f.stopController()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for f.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			return fmt.Errorf("fleet: drain: %w", ctx.Err())
		case <-tick.C:
		}
	}
	return f.Close()
}

// Close stops admission and shuts every node's server down, draining their
// queues. It is idempotent and safe for concurrent use; Infer calls issued
// after Close fail with serve.ErrClosed.
func (f *Fleet) Close() error {
	f.closeOnce.Do(func() {
		f.closed.Store(true)
		f.stopController()
		var wg sync.WaitGroup
		for _, n := range f.nodes {
			wg.Add(1)
			go func(n *node) {
				defer wg.Done()
				n.srv.Close()
			}(n)
		}
		wg.Wait()
		f.clock.stop()
		close(f.drained)
	})
	<-f.drained
	return nil
}

// DeviceStats is one node's slice of the fleet statistics.
type DeviceStats struct {
	// Name is the node's identity ("rpi3", or "rpi3#2" for a second node of
	// the same device type).
	Name string `json:"name"`
	// Workers is the node's current replica pool width — live, so a fleet
	// under autoscale reports each node's momentary provisioning.
	Workers int `json:"workers"`
	// Routed is the number of routing decisions that chose this node.
	Routed int64 `json:"routed"`
	// Shed is the number of samples that missed the fleet deadline on this
	// node.
	Shed int64 `json:"shed"`
	// SampleLatencyMicros is the modeled single-sample latency of the
	// default model on this node — the figure the cost-aware policy scores
	// default-model traffic by — in microseconds.
	SampleLatencyMicros float64 `json:"sample_latency_micros"`
	// Serve is the node server's own statistics snapshot, aggregated across
	// every model the node hosts.
	Serve serve.Stats `json:"serve"`
}

// ModelStats is one hosted model's fleet-wide slice of the statistics:
// counters summed and latency percentiles merged across every node's pool
// for that model.
type ModelStats struct {
	// Name is the model's serving identity.
	Name string `json:"name"`
	// Precision is the model's numeric serving path ("f32" or "int8").
	Precision string `json:"precision,omitempty"`
	// Requests is the number of samples served successfully for this model,
	// fleet-wide.
	Requests int64 `json:"requests"`
	// Errors is the number of samples whose protocol run failed for this
	// model, fleet-wide.
	Errors int64 `json:"errors"`
	// Swaps is the number of completed per-node hot swaps of this model,
	// summed across the fleet (one fleet-wide SwapModel counts once per
	// node).
	Swaps int64 `json:"swaps"`
	// P50/P95/P99Micros are the model's modeled per-request latency
	// percentiles in microseconds, merged across every node's samples.
	P50Micros float64 `json:"p50_micros"`
	// P95Micros is the model's fleet-wide modeled p95 latency in µs.
	P95Micros float64 `json:"p95_micros"`
	// P99Micros is the model's fleet-wide modeled p99 latency in µs.
	P99Micros float64 `json:"p99_micros"`
	// ModeledThroughput is the sum of the model's per-node modeled
	// throughputs, in requests per modeled device-second.
	ModeledThroughput float64 `json:"modeled_throughput_rps"`
	// LatencyHist is the model's fleet-wide merged modeled-latency
	// histogram behind the percentile fields, exposed for the /metrics
	// bucket families. Excluded from JSON.
	LatencyHist *obs.Histogram `json:"-"`
	// QueueWaitHist is the model's fleet-wide host-side queue-wait
	// distribution (seconds, one observation per sample). Excluded from JSON.
	QueueWaitHist *obs.Histogram `json:"-"`
	// BatchSizeHist is the model's fleet-wide realized batch-size
	// distribution (one observation per protocol run). Excluded from JSON.
	BatchSizeHist *obs.Histogram `json:"-"`
}

// Stats is an aggregated point-in-time snapshot of the fleet: fleet-wide
// counters and modeled latency percentiles (merged across every node's
// retained samples), plus the per-device breakdown.
type Stats struct {
	// Policy is the routing policy's name.
	Policy string `json:"policy"`
	// Devices is the number of attached nodes.
	Devices int `json:"devices"`
	// Requests is the number of samples served successfully, fleet-wide.
	Requests int64 `json:"requests"`
	// Errors is the number of samples whose protocol run failed, fleet-wide.
	Errors int64 `json:"errors"`
	// Shed is the number of samples refused by admission control (in-flight
	// cap) or timed out by the fleet deadline.
	Shed int64 `json:"shed"`
	// InFlight is the number of admitted, unanswered samples right now.
	InFlight int64 `json:"in_flight"`
	// RoutingDecisions is the total number of Pick calls that resolved.
	RoutingDecisions int64 `json:"routing_decisions"`
	// P50Micros is the fleet-wide modeled median per-request latency in
	// microseconds, merged across the nodes' samples.
	P50Micros float64 `json:"p50_micros"`
	// P95Micros is the fleet-wide modeled p95 latency in microseconds.
	P95Micros float64 `json:"p95_micros"`
	// P99Micros is the fleet-wide modeled p99 latency in microseconds.
	P99Micros float64 `json:"p99_micros"`
	// HostNsPerOp is the measured real host compute time per served sample
	// in nanoseconds, averaged across the fleet weighted by each node's
	// served requests — the real-compute figure reported alongside the
	// modeled percentiles.
	HostNsPerOp float64 `json:"host_ns_per_op"`
	// ModeledThroughput is the sum of the nodes' modeled throughputs —
	// requests per modeled device-second with every pool running in parallel.
	ModeledThroughput float64 `json:"modeled_throughput_rps"`
	// PeakSecureBytes is the sum of the nodes' secure-memory high-water
	// marks: the fleet's total modeled TEE footprint.
	PeakSecureBytes int64 `json:"peak_secure_bytes"`
	// Workers is the fleet's current total provisioned worker count.
	Workers int `json:"workers"`
	// WorkerSeconds is the integral of the provisioned worker count over
	// wall time since the fleet started — total capacity paid for, whether
	// busy or idle. The autoscaling acceptance compares it against
	// client-observed latency.
	WorkerSeconds float64 `json:"worker_seconds"`
	// WallSeconds is the host time since the fleet started.
	WallSeconds float64 `json:"wall_seconds"`
	// Models is the per-model fleet-wide breakdown, in hosting order
	// (DefaultModel first).
	Models []ModelStats `json:"models"`
	// PerDevice is the per-node breakdown, in construction order.
	PerDevice []DeviceStats `json:"per_device"`
	// LatencyHist is the fleet-wide merged modeled-latency histogram behind
	// the percentile fields (per-node histograms are under
	// PerDevice[i].Serve.LatencyHist, per-model ones under
	// Models[i].LatencyHist). Excluded from JSON — the stable percentile
	// fields are the artifact surface; /metrics renders the buckets.
	LatencyHist *obs.Histogram `json:"-"`
}

// Stats returns an aggregated snapshot of the fleet's counters. Each node's
// server is snapshotted exactly once, and the fleet-wide, per-device and
// per-model views are all folded from that one pass — so within a snapshot
// Requests == Σ Models[i].Requests == Σ PerDevice[i].Serve.Requests ==
// LatencyHist.Count(), by construction.
func (f *Fleet) Stats() Stats {
	nodes := f.nodes
	out := Stats{
		Policy:        f.cfg.Policy.Name(),
		Devices:       len(nodes),
		Shed:          f.shedTotal.Load(),
		InFlight:      f.inflight.Load(),
		WorkerSeconds: f.clock.total(),
		WallSeconds:   time.Since(f.start).Seconds(),
		LatencyHist:   &obs.Histogram{},
	}
	f.modelMu.RLock()
	defaultLat := make([]float64, len(nodes))
	for i, n := range nodes {
		defaultLat[i] = n.lat[DefaultModel]
	}
	f.modelMu.RUnlock()
	var hostNs float64
	modelAt := make(map[string]int) // model name → index in out.Models
	for i, n := range nodes {
		st := n.srv.Stats()
		out.Requests += st.Requests
		out.Errors += st.Errors
		out.RoutingDecisions += n.routed.Load()
		out.ModeledThroughput += st.ModeledThroughput
		out.PeakSecureBytes += st.PeakSecureBytes
		out.Workers += st.Workers
		hostNs += st.HostNsPerOp * float64(st.Requests)
		out.LatencyHist.Merge(st.LatencyHist)
		out.PerDevice = append(out.PerDevice, DeviceStats{
			Name:                n.name,
			Workers:             st.Workers,
			Routed:              n.routed.Load(),
			Shed:                n.shed.Load(),
			SampleLatencyMicros: defaultLat[i] * 1e6,
			Serve:               st,
		})
		// Every node hosts the models in the same order, so first-seen order
		// is hosting order (DefaultModel first).
		for _, pm := range st.PerModel {
			at, ok := modelAt[pm.Model]
			if !ok {
				at = len(out.Models)
				modelAt[pm.Model] = at
				out.Models = append(out.Models, ModelStats{Name: pm.Model, LatencyHist: &obs.Histogram{},
					QueueWaitHist: &obs.Histogram{}, BatchSizeHist: &obs.Histogram{}})
			}
			ms := &out.Models[at]
			ms.Precision = pm.Precision
			ms.Requests += pm.Requests
			ms.Errors += pm.Errors
			ms.Swaps += pm.Swaps
			ms.ModeledThroughput += pm.ModeledThroughput
			ms.LatencyHist.Merge(pm.LatencyHist)
			ms.QueueWaitHist.Merge(pm.QueueWaitHist)
			ms.BatchSizeHist.Merge(pm.BatchSizeHist)
		}
	}
	if out.Requests > 0 {
		out.HostNsPerOp = hostNs / float64(out.Requests)
	}
	p50, p95, p99 := out.LatencyHist.Percentiles()
	out.P50Micros, out.P95Micros, out.P99Micros = p50*1e6, p95*1e6, p99*1e6
	for i := range out.Models {
		ms := &out.Models[i]
		p50, p95, p99 := ms.LatencyHist.Percentiles()
		ms.P50Micros, ms.P95Micros, ms.P99Micros = p50*1e6, p95*1e6, p99*1e6
	}
	return out
}
