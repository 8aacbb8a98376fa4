// Package serve is TBNet's concurrent serving layer: it turns deployed
// two-branch models into pools of replicated enclave sessions behind
// micro-batching request queues.
//
// The TEE substrate makes single-request serving expensive — every inference
// pays per-stage world switches and shared-memory staging — and one enclave
// session is inherently serial (the staged REE→TEE protocol keeps per-call
// state inside the trusted application). The server addresses both at once:
//
//   - Replication: each worker owns a session replica (its own enclave,
//     meter, trace and activation arenas over the shared immutable
//     branches), so inferences run in parallel without sharing mutable
//     state. All replicas of all hosted models reserve their secure memory
//     from one device-sized budget, so the server never overcommits the
//     modeled hardware.
//   - Micro-batching: requests — one sample each, or a caller's chunk of up
//     to MaxBatch (InferBatch) — are coalesced into one staged protocol run
//     of up to MaxBatch samples, amortizing the fixed SMC and staging
//     overhead across the batch. Batching is work-conserving: a
//     batch goes to an idle worker at once and only grows while every
//     worker is busy, so a lone request never waits for companions. Holding
//     a batch back for them is opt-in (a positive MaxDelay).
//
// A Server is multi-tenant: it hosts one or more named models concurrently
// (AddModel), each with its own private worker pool and request queue —
// requests are only ever coalesced with other requests for the same model —
// and each model's replica pool can be hot-swapped for a new deployment
// without dropping a single in-flight or queued request (SwapModel).
//
// Latency accounting stays on the device cost model, so throughput and
// percentile figures are deterministic properties of the modeled hardware,
// not of the host the simulation runs on.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tbnet/internal/core"
	"tbnet/internal/obs"
	"tbnet/internal/tee"
	"tbnet/internal/tensor"
)

// ErrClosed is returned by the inference entry points after Close, and by
// AddModel/SwapModel on a closed server.
var ErrClosed = errors.New("server closed")

// ErrConfig reports an invalid server configuration or option value.
var ErrConfig = errors.New("invalid server configuration")

// ErrUnknownModel reports a request or swap addressed to a model name the
// server does not host.
var ErrUnknownModel = errors.New("unknown model")

// ErrModelExists reports an AddModel under a name the server already hosts
// (replace a hosted model with SwapModel instead).
var ErrModelExists = errors.New("model already hosted")

// DefaultModel is the name New registers its template deployment under;
// Infer routes to it.
const DefaultModel = "default"

// Config sizes the serving layer. The zero value of any field selects its
// default. One Config governs every hosted model: each model gets its own
// pool of Workers replicas and its own queue of Workers×MaxBatch×4 slots
// (Workers as constructed), four full batch waves per replica.
type Config struct {
	// Workers is the number of replicated enclave sessions per hosted model
	// (default 2).
	Workers int
	// MaxBatch is the micro-batch flush size (default 8). Each worker's
	// replica is deployed with this batch capacity, so secure memory is
	// accounted for the batched working set.
	MaxBatch int
	// MaxDelay is how long an incomplete batch is held back for more
	// requests even though a worker is idle. The zero value (the default)
	// never holds one: a batch coalesces only what arrives while every
	// worker is busy, so at partial load requests run alone — an operator
	// who wants them coalesced there (amortized switches, mixed-tenant
	// traces) sets a positive MaxDelay and pays it in latency.
	MaxDelay time.Duration
	// PaceScale, when positive, paces each worker in real time: after a
	// batch's protocol run the worker sleeps the batch's modeled device
	// latency multiplied by PaceScale. This turns the cost model's seconds
	// into wall-clock service time, so capacity scales with the worker
	// count even when the host has fewer cores than the fleet has workers —
	// the property the autoscaler's closed-loop tests depend on. Zero (the
	// default) disables pacing.
	PaceScale float64
	// Observer, when set, is called after every successful protocol run
	// with the model name, the number of samples served, and the realized
	// per-sample service time (host compute plus pacing). The fleet layer
	// installs its EWMA latency estimator here. The callback runs on the
	// worker goroutine and must be fast and non-blocking.
	Observer func(model string, samples int, perSample time.Duration)
	// Tracer, when set, records a span timeline for every request into the
	// tracer's bounded ring: queue wait, batch formation, per-world REE/TEE
	// host execution time, and pacing. Requests arriving with a span already
	// in their context (the HTTP ingress path) are annotated in place;
	// requests without one get a self-started span, so internally generated
	// traffic is traced too. Span recording is allocation-free in steady
	// state. Nil disables tracing (requests carrying a context span are
	// still annotated).
	Tracer *obs.Tracer
	// Tap, when set, receives the attacker-visible observation-trace view of
	// every successful protocol run — the event stream an adversary co-located
	// in the normal world would see in shared memory. The worker hands the
	// tap exactly that run's events (its script's attacker view), so tapped
	// views are pre-segmented per protocol run. The returned overhead (a
	// trace-obfuscation layer's modeled per-run cost, in device seconds) is
	// added to the run's recorded latency, so percentiles, pacing, and stats
	// all price the defense. The callback runs on the worker goroutine; nil
	// disables tapping (and its per-run allocations).
	Tap RunTap
}

// RunTap observes one protocol run's attacker-visible trace view. device is
// the replica's hardware backend (for pricing obfuscation costs), model the
// hosted model name (the tenant), batch the number of coalesced samples, and
// view the run's events as tee.Script.AttackerView returns them. The returned
// overhead in modeled device seconds is folded into the run's latency.
// Implementations must be safe for concurrent use by every worker.
type RunTap interface {
	// TapRun receives one run's attacker view and returns the modeled
	// overhead to charge to the run.
	TapRun(device tee.Device, model string, batch int, view []tee.Event) (overheadSec float64)
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 8
	}
	return c
}

func (c Config) validate() error {
	if c.Workers < 1 {
		return fmt.Errorf("%w: workers %d < 1", ErrConfig, c.Workers)
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

// request is one enqueued entry: a caller's k ≥ 1 samples, which join a
// batch together and are answered together. Every count the pool keeps —
// MaxBatch, pending, the stats — counts its samples, not the entry.
type request struct {
	x        *tensor.Tensor  // [k,C,H,W]
	out      []result        // k answers, written by the worker before it replies
	one      [1]result       // out's storage for a single sample
	resp     chan error      // buffered(1): workers never block on it
	ctx      context.Context // caller's context; expired requests are dropped at flush
	enqueued time.Time       // admission time, for queue-wait accounting
	span     obs.SpanRef     // request span (inert zero ref when untraced)
	owned    bool            // the pool started span itself and must finish it
	wait     time.Duration   // queue wait, set by the worker at batch pickup
	fate     atomic.Int32    // reqPending until claimed served or abandoned
}

// result is one sample's answer: its label, or the failure of the protocol
// run it rode alone.
type result struct {
	label int
	err   error
}

// samples is the number of samples the request carries.
func (r *request) samples() int { return len(r.out) }

// A request's fate is decided once: the worker claims it served just before
// recording it, or its caller, whose context has ended, claims it abandoned.
// Whichever claim lands first is the only one that counts, so a request is
// never both in the served counters and returned to its caller as failed.
const (
	reqPending int32 = iota
	reqServed
	reqAbandoned
)

// claimServed claims r for the worker about to record it; false means its
// caller gave up first.
func (r *request) claimServed() bool { return r.fate.CompareAndSwap(reqPending, reqServed) }

// giveUp claims r abandoned on behalf of a caller whose context has ended
// and reports whether it now is; false means a worker claimed it served
// first, and its answer is on the way.
func (r *request) giveUp() bool {
	return r.fate.CompareAndSwap(reqPending, reqAbandoned) || r.fate.Load() == reqAbandoned
}

// generation is one immutable worker set of a pool: the replicas, their
// batch feed, and the collective secure-memory reservation. A swap retires
// the old generation (close its feed, drain its workers, free its
// reservation) after installing the new one.
type generation struct {
	batches     chan []*request
	reps        []*core.Deployment
	workers     sync.WaitGroup
	secureBytes int64
	precision   string // numeric serving path of the replicas ("f32" or "int8")
}

// pool is one hosted model's serving machinery: a request queue, a batching
// dispatcher, and the current worker generation. Pools are private to their
// model — batches never mix models — and share only the server's
// secure-memory budget with their siblings.
type pool struct {
	srv         *Server
	name        string
	sampleShape []int // [1,C,H,W] of a single request

	// template is the deployment the current generation was replicated
	// from, retained so Resize can rebuild the pool at a new width without
	// the caller re-supplying weights. Guarded by swapMu (updated only
	// while a swap holds it; set before the pool is published).
	template *core.Deployment

	queue chan *request
	done  chan struct{}

	mu       sync.Mutex // guards closed + inflight admission
	closed   bool
	inflight sync.WaitGroup

	// pending counts the samples admitted to the queue whose answer has not
	// been delivered yet — the live in-flight load a routing layer probes —
	// and queued those of them still in the queue.
	pending, queued atomic.Int64

	dispatcherDone chan struct{}
	closeOnce      sync.Once
	drained        chan struct{}

	// genMu orders generation flips against batch handoffs: the dispatcher
	// holds it shared around each handoff, a swap holds it exclusively while
	// storing the new gen, and the dispatcher's exit marks the pool retired
	// under it so a late swap cannot install workers nobody will ever
	// terminate. Readers that only describe the installed generation (the
	// stats snapshot) load gen without the lock, so they never wait on a
	// handoff or a swap.
	genMu   sync.RWMutex
	gen     atomic.Pointer[generation]
	retired bool
	// swapMu serializes SwapModel calls on this pool.
	swapMu sync.Mutex
	swaps  atomic.Int64

	stats statsAgg
}

// Server hosts named models on one simulated device: per-model replica pools
// behind per-model micro-batching queues, all drawing secure memory from a
// single device-sized budget. Create one with New; it is safe for concurrent
// use.
type Server struct {
	cfg    Config
	device tee.Device
	budget *tee.SecureMemory // shared secure-memory budget of every pool
	start  time.Time

	// width is the current worker count per pool — cfg.Workers at
	// construction, updated by Resize. Each generation snapshots the width
	// it was built at (len(gen.reps)), so an in-flight generation is never
	// retroactively resized.
	width atomic.Int32

	// modelMu guards models/names; pools themselves are internally
	// synchronized.
	modelMu sync.RWMutex
	models  map[string]*pool
	names   []string // hosting order, for stable stats output

	closed    atomic.Bool
	closeOnce sync.Once
	drained   chan struct{}
}

// New builds a server hosting dep as its default model (named DefaultModel).
// The deployment itself is only used as the replication template; the server
// never runs inference through it, so the caller keeps exclusive use of the
// original session. Host further models with AddModel.
func New(dep *core.Deployment, cfg Config) (*Server, error) {
	if dep == nil {
		return nil, fmt.Errorf("%w: nil deployment", ErrConfig)
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		device:  dep.Device,
		budget:  tee.NewSecureMemory(dep.Device.SecureMemBytes()),
		start:   time.Now(),
		models:  make(map[string]*pool),
		drained: make(chan struct{}),
	}
	s.width.Store(int32(cfg.Workers))
	if err := s.addModel(DefaultModel, dep, false); err != nil {
		return nil, err
	}
	return s, nil
}

// traceBound is the per-replica observation-trace ring capacity — enough to
// hold the protocol events of the last few dozen batches for debugging
// without unbounded growth.
const traceBound = 1024

// newGeneration replicates dep into a fresh worker set of the given width,
// drawing on the shared budget. With warm set, each replica runs one
// single-sample inference, which sizes every buffer its plan draws, and then
// reserves MaxBatch (core.Deployment.Reserve), so every batch size up to
// MaxBatch runs without allocating before the generation sees traffic. The
// hot-swap path warms here, off the serving path, so the first post-swap
// batch pays no allocation or sizing cost.
func (s *Server) newGeneration(dep *core.Deployment, workers int, warm bool) (*generation, error) {
	g := &generation{batches: make(chan []*request), precision: string(dep.Precision())}
	release := func() {
		s.budget.Free(g.secureBytes)
		g.secureBytes = 0
	}
	for i := 0; i < workers; i++ {
		rep, err := dep.ReplicateOn(s.device, s.cfg.MaxBatch, s.budget)
		if err != nil {
			release()
			return nil, fmt.Errorf("serve: replicating session %d of %d: %w", i+1, workers, err)
		}
		// A serving session lives indefinitely: cap its observation trace so
		// steady-state requests neither allocate nor accumulate memory.
		rep.Enclave.Trace().Bound(traceBound)
		g.secureBytes += rep.SecureBytes
		g.reps = append(g.reps, rep)
	}
	if warm {
		shape := g.reps[0].SampleShape()
		shape[0] = 1
		sample := tensor.New(shape...)
		for _, rep := range g.reps {
			if _, err := rep.Infer(sample); err != nil {
				release()
				return nil, fmt.Errorf("serve: warming replica: %w", err)
			}
			rep.Reserve(s.cfg.MaxBatch)
		}
	}
	return g, nil
}

// startWorkers launches p's workers over generation g — one per replica, so
// a generation built at a different width than its predecessor changes the
// pool's effective parallelism the moment it is installed.
func (p *pool) startWorkers(g *generation) {
	for i := range g.reps {
		g.workers.Add(1)
		go p.worker(g, i)
	}
}

// addModel creates and registers a pool for dep under name.
func (s *Server) addModel(name string, dep *core.Deployment, warm bool) error {
	if name == "" {
		return fmt.Errorf("%w: empty model name", ErrConfig)
	}
	s.modelMu.Lock()
	defer s.modelMu.Unlock()
	// The closed check must happen under modelMu: Close snapshots the pool
	// set under the same lock, so a pool registered here is either seen and
	// drained by Close, or this registration observes closed and refuses —
	// never a live pool Close missed.
	if s.closed.Load() {
		return ErrClosed
	}
	if _, ok := s.models[name]; ok {
		return fmt.Errorf("%w: %q", ErrModelExists, name)
	}
	width := s.Workers()
	g, err := s.newGeneration(dep, width, warm)
	if err != nil {
		return err
	}
	shape := dep.SampleShape()
	shape[0] = 1
	p := &pool{
		srv:            s,
		name:           name,
		sampleShape:    shape,
		template:       dep,
		queue:          make(chan *request, s.cfg.Workers*s.cfg.MaxBatch*4),
		done:           make(chan struct{}),
		dispatcherDone: make(chan struct{}),
		drained:        make(chan struct{}),
	}
	p.gen.Store(g)
	p.stats.start = time.Now()
	p.stats.workerBusy = make([]float64, width)
	p.startWorkers(g)
	go p.dispatch()
	s.models[name] = p
	s.names = append(s.names, name)
	return nil
}

// AddModel hosts a further named model on the server: a fresh replica pool
// (replicated onto the server's device and warmed before it sees traffic:
// one single-sample run per replica, arenas reserved for MaxBatch) and a
// fresh request queue, drawing secure memory from the same device budget as
// every other hosted model. It fails with ErrModelExists if name is taken
// and ErrSecureMemory (wrapped) if the added pool does not fit the budget
// alongside the existing ones.
func (s *Server) AddModel(name string, dep *core.Deployment) error {
	if dep == nil {
		return fmt.Errorf("%w: nil deployment", ErrConfig)
	}
	return s.addModel(name, dep, true)
}

// RemoveModel stops hosting a named model: admission on its queue stops,
// queued requests drain through its workers, and the pool's secure-memory
// reservation returns to the shared budget. The default model cannot be
// removed (a server always hosts it); unknown names fail with
// ErrUnknownModel. In-flight requests for the model complete normally;
// requests issued after removal fail with ErrUnknownModel.
func (s *Server) RemoveModel(name string) error {
	if name == DefaultModel {
		return fmt.Errorf("%w: cannot remove the default model", ErrConfig)
	}
	s.modelMu.Lock()
	p, ok := s.models[name]
	if !ok {
		s.modelMu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	delete(s.models, name)
	for i, n := range s.names {
		if n == name {
			s.names = append(s.names[:i], s.names[i+1:]...)
			break
		}
	}
	s.modelMu.Unlock()
	p.close()
	// The pool is drained and retired: its final generation cannot change
	// anymore, so its reservation can be returned to the budget.
	s.budget.Free(p.gen.Load().secureBytes)
	return nil
}

// lookup resolves a model name to its pool.
func (s *Server) lookup(name string) (*pool, error) {
	s.modelMu.RLock()
	p := s.models[name]
	s.modelMu.RUnlock()
	if p == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	return p, nil
}

// SampleShape returns the [1,C,H,W] single-sample input shape a hosted
// model's pool was sized for; unknown names fail with ErrUnknownModel. A
// network front end uses it to validate request payload lengths before
// building a tensor.
func (s *Server) SampleShape(model string) ([]int, error) {
	p, err := s.lookup(model)
	if err != nil {
		return nil, err
	}
	return append([]int(nil), p.sampleShape...), nil
}

// SwapModel atomically replaces the named model's replicas with a pool built
// from dep, without dropping a single request. The sequence is
// warm-then-drain:
//
//  1. A full new generation is replicated onto the server's device and
//     warmed (one single-sample run each, then arenas reserved for
//     MaxBatch) while the old replicas keep serving.
//  2. The new generation is installed; every batch formed from now on runs
//     on the new model. The queue, its waiting requests, and the model's
//     statistics all survive the swap untouched.
//  3. The old generation's feed is closed; its workers finish the batches
//     already handed to them, exit, and their secure-memory reservation is
//     released.
//
// SwapModel returns once the old replicas have fully drained, so after it
// returns every response the server produces for this model comes from dep's
// weights. During the warm window both generations hold secure memory, so
// the device budget needs headroom for one extra pool; without it SwapModel
// fails with ErrSecureMemory (wrapped) and the old pool keeps serving — a
// failed swap never degrades the running model. The new deployment must
// accept the pool's sample shape ([C,H,W] must match; dep may come from any
// device — it is re-priced onto the server's backend).
func (s *Server) SwapModel(name string, dep *core.Deployment) error {
	if dep == nil {
		return fmt.Errorf("%w: nil deployment", ErrConfig)
	}
	p, err := s.lookup(name)
	if err != nil {
		return err
	}
	shape := dep.SampleShape()
	for i := 1; i < 4; i++ {
		if shape[i] != p.sampleShape[i] {
			return fmt.Errorf("%w: swap shape %v does not match served shape %v",
				ErrConfig, shape, p.sampleShape)
		}
	}
	if err := s.swapInto(p, dep, s.Workers()); err != nil {
		return err
	}
	p.swaps.Add(1)
	return nil
}

// swapInto is the shared warm-then-drain engine behind SwapModel and Resize:
// it builds a fresh generation of the given width from dep (nil means the
// pool's retained template — a pure resize), installs it, then drains and
// releases the displaced generation. On a retired pool (removed model, or
// server shutting down) it fails with ErrClosed without touching anything.
func (s *Server) swapInto(p *pool, dep *core.Deployment, workers int) error {
	p.swapMu.Lock()
	defer p.swapMu.Unlock()
	if dep == nil {
		dep = p.template
	}
	g, err := s.newGeneration(dep, workers, true)
	if err != nil {
		return err
	}
	p.genMu.Lock()
	if p.retired {
		p.genMu.Unlock()
		s.budget.Free(g.secureBytes)
		return ErrClosed
	}
	old := p.gen.Swap(g)
	p.template = dep
	p.startWorkers(g)
	p.genMu.Unlock()
	// Drain the displaced generation: close its feed (the dispatcher already
	// routes new batches to g), let its workers finish what they hold, then
	// return their reservation to the shared budget.
	close(old.batches)
	old.workers.Wait()
	s.budget.Free(old.secureBytes)
	return nil
}

// Workers returns the current per-pool worker width — Config.Workers at
// construction, the latest successful Resize target afterwards.
func (s *Server) Workers() int { return int(s.width.Load()) }

// Resize changes every hosted pool's worker width to workers, live and
// without dropping a request. Each pool goes through the same warm-then-drain
// generation swap as SwapModel — the new generation is replicated and warmed
// at the target width while the old one keeps serving, so during the window
// both generations hold secure memory and a scale-up that would exceed the
// device budget is refused with ErrSecureMemory (wrapped), leaving the old
// width serving (pools already resized are rolled back best-effort). A pool
// removed concurrently is skipped; a closed server fails with ErrClosed.
func (s *Server) Resize(workers int) error {
	if workers < 1 {
		return fmt.Errorf("%w: workers %d < 1", ErrConfig, workers)
	}
	if s.closed.Load() {
		return ErrClosed
	}
	old := s.Workers()
	s.modelMu.RLock()
	pools := make([]*pool, 0, len(s.names))
	for _, name := range s.names {
		pools = append(pools, s.models[name])
	}
	s.modelMu.RUnlock()
	var done []*pool
	for _, p := range pools {
		err := s.swapInto(p, nil, workers)
		if errors.Is(err, ErrClosed) && !s.closed.Load() {
			continue // model removed while we resized its siblings
		}
		if err != nil {
			// Restore the pools already moved so a refused scale-up leaves
			// the server at one coherent width. Rollback shrinks back to the
			// pre-resize width, which fit before; failures are ignored — the
			// pool keeps serving at whichever width it holds.
			for _, q := range done {
				_ = s.swapInto(q, nil, old)
			}
			return err
		}
		done = append(done, p)
	}
	s.width.Store(int32(workers))
	return nil
}

// dispatch coalesces queued requests into batches of at most MaxBatch
// samples. It is work-conserving: a batch starts with its first request plus
// whatever is already queued, and offer then hands it to the first free
// worker, so a request never waits while a worker idles. A positive MaxDelay
// first holds the batch back for up to that long (or until it is full) — the
// opt-in linger. A request that would overfill the batch is carried over to
// start the next one.
func (p *pool) dispatch() {
	defer close(p.dispatcherDone)
	defer p.retire()
	cfg := p.srv.cfg
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	var carry *request
	for {
		first := carry
		if first == nil {
			var ok bool
			if first, ok = <-p.queue; !ok {
				return
			}
			p.queued.Add(-int64(first.samples()))
		}
		b := forming{reqs: append(make([]*request, 0, cfg.MaxBatch), first), size: first.samples()}
		carry = nil
		// The dispatcher is the queue's only receiver, so a non-empty queue
		// cannot block it.
		for carry == nil && b.size < cfg.MaxBatch && len(p.queue) > 0 {
			carry = p.add(&b, <-p.queue)
		}
		if cfg.MaxDelay > 0 && carry == nil && b.size < cfg.MaxBatch {
			timer.Reset(cfg.MaxDelay)
		fill:
			for carry == nil && b.size < cfg.MaxBatch {
				select {
				case r, ok := <-p.queue:
					if !ok {
						break fill
					}
					carry = p.add(&b, r)
				case <-timer.C:
					break fill
				}
			}
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		}
		carry = p.offer(&b, carry)
	}
}

// forming is one batch in the making: its requests and their sample count.
type forming struct {
	reqs []*request
	size int
}

// add takes r, just received from the queue, into b if its samples fit under
// MaxBatch and returns nil; a request that does not fit is returned for the
// next batch.
func (p *pool) add(b *forming, r *request) (carry *request) {
	p.queued.Add(-int64(r.samples()))
	if b.size+r.samples() > p.srv.cfg.MaxBatch {
		return r
	}
	b.reqs = append(b.reqs, r)
	b.size += r.samples()
	return nil
}

// offer hands one batch to the current generation: a worker takes it, or —
// while every worker is busy — another request arrives and rides along,
// which is exactly when growing the batch is free. Once the batch is full, a
// request is carried over (it arrived first and must start the next batch)
// or the queue is closed, there is nothing left to wait for but a worker.
// offer returns the carry-over, new or passed in. The shared lock pins the
// generation across the (possibly blocking) offer, so a concurrent swap
// waits for the handoff instead of closing a channel mid-send.
func (p *pool) offer(b *forming, carry *request) *request {
	p.genMu.RLock()
	defer p.genMu.RUnlock()
	max := p.srv.cfg.MaxBatch
	out, in := p.gen.Load().batches, p.queue
	if carry != nil {
		in = nil
	}
	for in != nil && b.size < max {
		select {
		case out <- b.reqs:
			return nil
		case r, ok := <-in:
			if !ok {
				in = nil
			} else if carry = p.add(b, r); carry != nil {
				in = nil
			}
		}
	}
	out <- b.reqs
	return carry
}

// retire marks the pool closed for swaps and shuts the current generation's
// feed; it runs exactly once, when the dispatcher exits after draining the
// queue.
func (p *pool) retire() {
	p.genMu.Lock()
	p.retired = true
	close(p.gen.Load().batches)
	p.genMu.Unlock()
}

// workerScratch is one worker's preplanned request-assembly state: a
// max-batch staging tensor with one prebuilt view per batch size, and a
// label buffer, so coalescing and inference allocate nothing in steady
// state.
type workerScratch struct {
	views  []*tensor.Tensor // views[k] is a [k,C,H,W] prefix view, k ≥ 1
	per    int              // floats per sample
	labels []int
	// bd is the worker's reusable per-world execution breakdown, filled by
	// InferIntoObserved when the batch carries at least one traced request.
	bd obs.ExecBreakdown
}

func (p *pool) newScratch() *workerScratch {
	maxBatch := p.srv.cfg.MaxBatch
	shape := append([]int(nil), p.sampleShape...)
	shape[0] = maxBatch
	backing := tensor.New(shape...)
	per := backing.Size() / maxBatch
	ws := &workerScratch{
		views:  make([]*tensor.Tensor, maxBatch+1),
		per:    per,
		labels: make([]int, maxBatch),
	}
	for k := 1; k <= maxBatch; k++ {
		ws.views[k] = tensor.FromData(backing.Data()[:k*per], k, shape[1], shape[2], shape[3])
	}
	return ws
}

// concatInto stacks the requests' samples, n in all, into the worker's
// preplanned [n,C,H,W] staging view. A lone request's tensor already is the
// batch, and runs as it is.
func (ws *workerScratch) concatInto(live []*request, n int) *tensor.Tensor {
	if len(live) == 1 {
		return live[0].x
	}
	x := ws.views[n]
	at := 0
	for _, r := range live {
		at += copy(x.Data()[at:], r.x.Data())
	}
	return x
}

// worker runs batches through its private session replica until its
// generation's feed closes (server shutdown, or this generation being
// swapped out).
func (p *pool) worker(g *generation, id int) {
	defer g.workers.Done()
	ws := p.newScratch()
	rep := g.reps[id]
	for batch := range g.batches {
		p.runBatch(id, rep, ws, batch)
	}
}

// outcome is one protocol run's result.
type outcome struct {
	labels []int         // one per sample (the worker's buffer), when err is nil
	lat    float64       // modeled seconds, the tap's overhead included
	hostNs time.Duration // host time inside the run
	paced  time.Duration // the pacing sleep after it
	err    error
}

// run executes one protocol run over x. A successful run is priced (its
// script's modeled seconds), tapped, paced and reported to the Observer; a
// failed one is only returned.
func (p *pool) run(rep *core.Deployment, ws *workerScratch, x *tensor.Tensor, bd *obs.ExecBreakdown) outcome {
	hostStart := time.Now()
	labels, err := rep.InferIntoObserved(x, ws.labels, bd)
	o := outcome{labels: labels, hostNs: time.Since(hostStart), err: err}
	n := x.Dim(0)
	if err == nil && len(labels) != n {
		o.err = fmt.Errorf("serve: %d labels for %d samples", len(labels), n)
	}
	if o.err == nil {
		// n is a batch the replica just served, so both lookups succeed.
		o.lat, _ = rep.ModeledLatency(n)
		if tap := p.srv.cfg.Tap; tap != nil {
			script, _ := rep.Script(n)
			o.lat += tap.TapRun(rep.Device, p.name, n, script.AttackerView())
		}
		o.paced = p.pace(o.lat)
		p.observe(n, o.hostNs+o.paced)
	}
	return o
}

// runBatch executes one protocol run for a batch of any size. The order is
// fixed: run, tap, pace, claim, record (counters and histogram together,
// under the stats lock), pending--, reply — so by the time a caller's Infer
// returns, its samples are already in every counter a Stats call can read. A
// failed run of several samples would pin one error on every one of them, so
// it is isolated: each sample runs again alone (isolate), good samples still
// succeed, and only the offending sample carries the error.
func (p *pool) runBatch(id int, rep *core.Deployment, ws *workerScratch, batch []*request) {
	// Drop requests whose caller already gave up (cancelled context, missed
	// deadline): their abandoned callers would discard the answer anyway, so
	// running them would burn modeled device time on shed load and count it
	// as served. They are answered with their context's error and appear in
	// neither the request nor the error counters.
	traced, n := false, 0
	now := time.Now()
	live := batch[:0] // filtered in place: the worker owns the batch
	for _, r := range batch {
		k := int64(r.samples())
		if r.ctx != nil && r.ctx.Err() != nil && r.giveUp() {
			p.pending.Add(-k)
			r.resp <- r.ctx.Err()
			continue
		}
		if !r.enqueued.IsZero() {
			r.wait = now.Sub(r.enqueued)
		}
		traced = traced || r.span.Active()
		live = append(live, r)
		n += r.samples()
	}
	if len(live) == 0 {
		return
	}
	x := ws.concatInto(live, n)
	var bd *obs.ExecBreakdown
	if traced {
		bd = &ws.bd
	}
	prep := time.Since(now)
	o := p.run(rep, ws, x, bd)
	if o.err != nil && n > 1 {
		for _, r := range live {
			p.isolate(id, rep, ws, r, prep, bd)
		}
		return
	}
	// A caller whose context ended during the run, pacing included, has
	// already returned its context's error: its request is the caller's to
	// count, not a served (or failed) one, and its span is no longer ours
	// to mark. A request owns its answers, so they are written before the
	// claim; an abandoned caller never reads them.
	kept, at := live[:0], 0
	for _, r := range live {
		for j := range r.out {
			r.out[j] = result{err: o.err}
			if o.err == nil {
				r.out[j].label = o.labels[at+j]
			}
		}
		at += r.samples()
		if r.claimServed() {
			kept = append(kept, r)
		} else {
			p.pending.Add(-int64(r.samples()))
		}
	}
	if len(kept) == 0 {
		return
	}
	p.stats.record(id, kept, &o)
	for _, r := range kept {
		r.markStages(prep, bd, o.paced)
		p.reply(r)
	}
}

// isolate runs each sample of r alone after the batch it rode failed, so a
// failure stays with the sample that causes it: every other sample still
// gets its label, and only that sample's answer and counter carry the error.
// Each run is booked as the one-sample run it is; r is claimed and answered
// once, after the last of them.
func (p *pool) isolate(id int, rep *core.Deployment, ws *workerScratch, r *request, prep time.Duration, bd *obs.ExecBreakdown) {
	runs := make([]outcome, r.samples())
	x := ws.views[1]
	for j := range runs {
		copy(x.Data(), r.x.Data()[j*ws.per:(j+1)*ws.per])
		runs[j] = p.run(rep, ws, x, bd)
		r.out[j] = result{err: runs[j].err}
		if runs[j].err == nil {
			r.out[j].label = runs[j].labels[0]
		}
	}
	if !r.claimServed() {
		p.pending.Add(-int64(r.samples()))
		return
	}
	for j := range runs {
		one := request{out: r.out[j : j+1], wait: r.wait, span: r.span}
		p.stats.record(id, []*request{&one}, &runs[j])
	}
	r.markStages(prep, bd, runs[len(runs)-1].paced)
	p.reply(r)
}

// reply releases a claimed, booked request's samples from the in-flight
// count and wakes its caller.
func (p *pool) reply(r *request) {
	p.pending.Add(-int64(r.samples()))
	r.resp <- nil
}

// markStages writes the worker-side span timeline for one served request:
// its queue wait, the batch formation time it shared, the batch's per-world
// execution split, and the pacing sleep. A zero span ref makes it free.
func (r *request) markStages(prep time.Duration, bd *obs.ExecBreakdown, paced time.Duration) {
	if !r.span.Active() {
		return
	}
	r.span.Mark(obs.StageQueued, r.wait)
	r.span.Mark(obs.StageBatched, prep)
	if bd != nil {
		r.span.Mark(obs.StageREE, time.Duration(bd.REENs))
		r.span.Mark(obs.StageTEE, time.Duration(bd.TEENs))
	}
	if paced > 0 {
		r.span.Mark(obs.StagePace, paced)
	}
}

// pace sleeps the modeled batch latency scaled by Config.PaceScale, turning
// the cost model into wall-clock service time; it returns the slept duration.
// A zero scale is free.
func (p *pool) pace(lat float64) time.Duration {
	scale := p.srv.cfg.PaceScale
	if scale <= 0 || lat <= 0 {
		return 0
	}
	d := time.Duration(lat * scale * float64(time.Second))
	time.Sleep(d)
	return d
}

// observe reports one successful run's realized per-sample service time to
// the configured Observer.
func (p *pool) observe(samples int, service time.Duration) {
	obs := p.srv.cfg.Observer
	if obs == nil || samples == 0 {
		return
	}
	obs(p.name, samples, service/time.Duration(samples))
}

// checkBatch validates one request input: a sample ([C,H,W] or [1,C,H,W])
// or 1 to MaxBatch of them ([k,C,H,W]) matching the deployed sample shape.
func (p *pool) checkBatch(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x == nil {
		return nil, fmt.Errorf("serve: nil input: %w", core.ErrShape)
	}
	want := p.sampleShape
	switch x.Rank() {
	case 3:
		if x.Dim(0) != want[1] || x.Dim(1) != want[2] || x.Dim(2) != want[3] {
			return nil, fmt.Errorf("serve: input shape %v does not match served shape %v: %w",
				x.Shape(), want[1:], core.ErrShape)
		}
		return x.Reshape(1, want[1], want[2], want[3]), nil
	case 4:
		if k := x.Dim(0); k < 1 || k > p.srv.cfg.MaxBatch || x.Dim(1) != want[1] || x.Dim(2) != want[2] || x.Dim(3) != want[3] {
			return nil, fmt.Errorf("serve: input shape %v is not 1 to %d samples of %v: %w",
				x.Shape(), p.srv.cfg.MaxBatch, want[1:], core.ErrShape)
		}
		return x, nil
	default:
		return nil, fmt.Errorf("serve: input rank %d, want [C,H,W] or [k,C,H,W]: %w",
			x.Rank(), core.ErrShape)
	}
}

// enqueue admits one request into the queue, honouring cancellation and
// shutdown. It must be balanced with exactly one receive from req.resp by a
// worker (the response channel is buffered so an abandoned caller never
// blocks the worker).
func (p *pool) enqueue(ctx context.Context, req *request) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	p.inflight.Add(1)
	p.mu.Unlock()
	defer p.inflight.Done()
	req.enqueued = time.Now()
	k := int64(req.samples())
	p.pending.Add(k)
	p.queued.Add(k)
	select {
	case p.queue <- req:
		return nil
	case <-ctx.Done():
		p.pending.Add(-k)
		p.queued.Add(-k)
		return ctx.Err()
	case <-p.done:
		p.pending.Add(-k)
		p.queued.Add(-k)
		return ErrClosed
	}
}

// submit validates one request input, attaches its span and enqueues it. A
// request arriving from the HTTP ingress already carries its span in ctx;
// direct callers get a self-started span when the server traces. Both paths
// are allocation-free (the ring slot is preallocated). Only self-started
// spans are finished by this layer (owned) — a ctx-carried span belongs to
// whoever started it (the HTTP tracing middleware), which still has the
// response-writing stage to account for. A submit that fails has finished
// its owned span; one that succeeds must be awaited.
func (p *pool) submit(ctx context.Context, x *tensor.Tensor) (*request, error) {
	x, err := p.checkBatch(x)
	if err != nil {
		return nil, err
	}
	span := obs.FromContext(ctx)
	owned := !span.Active()
	if owned {
		span = p.srv.cfg.Tracer.Start("")
	}
	span.SetModel(p.name)
	span.MarkSinceStart(obs.StageIngress)
	req := &request{x: x, resp: make(chan error, 1), ctx: ctx, span: span, owned: owned}
	if k := x.Dim(0); k == 1 {
		req.out = req.one[:]
	} else {
		req.out = make([]result, k)
	}
	if err := p.enqueue(ctx, req); err != nil {
		if owned {
			span.Finish(true)
		}
		return nil, err
	}
	return req, nil
}

// await blocks until a submitted request resolves or its context ends, and
// returns the request's own error: nil means req.out holds every sample's
// answer. A context that ends after a worker claimed the request served does
// not abandon it: the worker's answer is on the way and is the one returned.
func (p *pool) await(req *request) error {
	var err error
	select {
	case err = <-req.resp:
	case <-req.ctx.Done():
		if req.giveUp() {
			err = req.ctx.Err()
		} else {
			err = <-req.resp
		}
	}
	if req.owned {
		// The answers are the caller's to read only once the worker replied.
		failed := err != nil
		for i := 0; !failed && i < len(req.out); i++ {
			failed = req.out[i].err != nil
		}
		req.span.Finish(failed)
	}
	return err
}

// close drains and stops the pool: admission stops, the dispatcher flushes
// what was admitted, the current generation's workers finish it, and every
// caller of close blocks until the drain completes.
func (p *pool) close() {
	p.closeOnce.Do(func() {
		p.mu.Lock()
		p.closed = true
		p.mu.Unlock()
		close(p.done)     // wake enqueuers blocked on a full queue
		p.inflight.Wait() // no sends in flight anymore
		close(p.queue)    // dispatcher flushes what was admitted, then exits
		<-p.dispatcherDone
		p.gen.Load().workers.Wait()
		close(p.drained)
	})
	<-p.drained
}

// QueueDepth is a live probe of the number of samples waiting for a batch
// slot right now, summed across the hosted models. Routing layers use it to
// compare load across servers.
func (s *Server) QueueDepth() int {
	s.modelMu.RLock()
	defer s.modelMu.RUnlock()
	total := 0
	for _, p := range s.models {
		total += int(p.queued.Load())
	}
	return total
}

// InFlight is a live probe of the number of admitted samples whose answer
// has not been delivered yet (queued + being served), summed across the
// hosted models.
func (s *Server) InFlight() int64 {
	s.modelMu.RLock()
	defer s.modelMu.RUnlock()
	var total int64
	for _, p := range s.models {
		total += p.pending.Load()
	}
	return total
}

// Infer classifies one sample ([C,H,W] or [1,C,H,W]) with the default model
// and returns its label. It blocks until a batched protocol run completes,
// the context is cancelled, or the server closes. A request whose context
// expires while it is still queued is dropped at batch-formation time
// without consuming a protocol run, so abandoned (shed) load costs no
// modeled device time. The caller must not mutate x until Infer returns.
func (s *Server) Infer(ctx context.Context, x *tensor.Tensor) (int, error) {
	return s.InferModel(ctx, DefaultModel, x)
}

// InferModel is Infer addressed to a named hosted model; unknown names fail
// with ErrUnknownModel. It is InferBatch of one sample.
func (s *Server) InferModel(ctx context.Context, model string, x *tensor.Tensor) (int, error) {
	var label [1]int
	var errs [1]error
	if err := s.InferBatch(ctx, model, x, label[:], errs[:]); err != nil {
		return 0, err
	}
	return label[0], errs[0]
}

// InferBatch classifies the k samples of x ([k,C,H,W], 1 ≤ k ≤ MaxBatch; a
// lone [C,H,W] sample is k = 1) with a named hosted model as one queue
// entry: the samples are admitted, batched and answered together, so they
// share one protocol run with each other and with whatever they coalesce
// with. Sample i's label lands in labels[i] and its failure in errs[i] (nil
// when it has a label): a run that fails is repeated for each sample alone,
// so only a sample that fails by itself carries an error. Both slices must
// hold at least k entries. A non-nil return is the whole entry's (unknown model, bad
// shape, closed server, ended context), and leaves labels and errs
// untouched. The caller must not mutate x until InferBatch returns.
func (s *Server) InferBatch(ctx context.Context, model string, x *tensor.Tensor, labels []int, errs []error) error {
	p, err := s.lookup(model)
	if err != nil {
		return err
	}
	k := 1
	if x != nil && x.Rank() == 4 {
		k = x.Dim(0)
	}
	if len(labels) < k || len(errs) < k {
		return fmt.Errorf("serve: %d labels / %d errors for %d samples: %w", len(labels), len(errs), k, core.ErrShape)
	}
	req, err := p.submit(ctx, x)
	if err != nil {
		return err
	}
	if err := p.await(req); err != nil {
		return err
	}
	for i, o := range req.out {
		labels[i], errs[i] = o.label, o.err
	}
	return nil
}

// Close stops admission on every hosted model, drains their queues through
// the workers, and waits for them to finish. It is idempotent and safe for
// concurrent use: every caller blocks until the drain completes. Inference
// calls issued after Close fail with ErrClosed.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.closed.Store(true)
		s.modelMu.RLock()
		pools := make([]*pool, 0, len(s.models))
		for _, p := range s.models {
			pools = append(pools, p)
		}
		s.modelMu.RUnlock()
		var wg sync.WaitGroup
		for _, p := range pools {
			wg.Add(1)
			go func(p *pool) {
				defer wg.Done()
				p.close()
			}(p)
		}
		wg.Wait()
		close(s.drained)
	})
	<-s.drained
	return nil
}

// Stats is a point-in-time snapshot of the serving layer's behaviour. All
// latency and throughput figures come from the device cost model (modeled
// seconds on the simulated TrustZone hardware), not from host wall time,
// except WallSeconds and AvgQueueWaitMicros, which report the host-side
// observation window and batching delay. Server.Stats aggregates every
// hosted model, and its PerModel entries scope the same snapshot to each. The
// JSON tags are the stable machine-readable names the CLI's -json output
// carries.
type Stats struct {
	// Device is the name of the hardware backend the pools are modeled on.
	Device string `json:"device"`
	// Model is the hosted model the snapshot is scoped to ("" for a
	// server-wide aggregate).
	Model string `json:"model,omitempty"`
	// Precision is the numeric serving path of the scoped model ("f32" or
	// "int8"); a server-wide aggregate hosting both reports "mixed".
	Precision string `json:"precision,omitempty"`
	// Models is the number of models hosted at snapshot time.
	Models int `json:"models"`
	// Swaps is the number of completed hot swaps (scoped like the rest of
	// the snapshot).
	Swaps int64 `json:"swaps"`
	// PeakSecureBytes is the server's secure-memory high-water mark: the
	// most bytes all hosted pools collectively held against the device
	// budget (swap windows included).
	PeakSecureBytes int64 `json:"peak_secure_bytes"`
	// Requests is the number of samples served successfully.
	Requests int64 `json:"requests"`
	// Errors is the number of samples whose protocol run failed.
	Errors int64 `json:"errors"`
	// Batches is the number of staged protocol runs.
	Batches int64 `json:"batches"`
	// MeanBatch is Requests/Batches — the realized amortization factor.
	MeanBatch float64 `json:"mean_batch"`
	// LargestBatch is the biggest batch coalesced so far.
	LargestBatch int `json:"largest_batch"`
	// QueueDepth is the number of samples waiting for a batch slot right now.
	QueueDepth int `json:"queue_depth"`
	// Workers is the replica pool width per hosted model.
	Workers int `json:"workers"`
	// P50Latency and P99Latency are modeled per-request device latencies in
	// seconds (a request's latency is its batch's staged protocol run).
	P50Latency float64 `json:"p50_latency_sec"`
	// P99Latency is the modeled p99 per-request latency in seconds.
	P99Latency float64 `json:"p99_latency_sec"`
	// P95Micros is the modeled p95 per-request latency in microseconds — the
	// tail figure routing policies and the fleet stats table compare across
	// heterogeneous backends.
	P95Micros float64 `json:"p95_micros"`
	// HostNsPerOp is the mean *real* host compute time per served sample in
	// nanoseconds — the measured cost of the staged protocol run on this
	// machine, reported alongside the modeled device figures so the bench
	// trajectory tracks actual kernel performance, not just the cost model.
	HostNsPerOp float64 `json:"host_ns_per_op"`
	// AvgQueueWaitMicros is the mean host-side time a request spent queued
	// before its batch started, in microseconds — the price of coalescing.
	AvgQueueWaitMicros float64 `json:"avg_queue_wait_micros"`
	// ModeledThroughput is requests per modeled device-second. Within one
	// model the busiest replica is the critical path; across models the
	// per-model figures add, since every pool runs in parallel.
	ModeledThroughput float64 `json:"modeled_throughput_rps"`
	// WallSeconds is the host time since the server started.
	WallSeconds float64 `json:"wall_seconds"`
	// LatencyHist is the merged modeled-latency histogram behind the
	// percentile fields: an unshared snapshot the caller may keep merging
	// (the fleet layer folds node snapshots into fleet-wide and per-model
	// families for /metrics). Excluded from JSON — the stable percentile
	// fields above are the artifact surface.
	LatencyHist *obs.Histogram `json:"-"`
	// QueueWaitHist is the distribution behind AvgQueueWaitMicros: one
	// observation per sample, in host seconds from admission to its batch's
	// start. Snapshotted with the counters; excluded from JSON.
	QueueWaitHist *obs.Histogram `json:"-"`
	// BatchSizeHist is the distribution behind MeanBatch: one observation
	// per protocol run, valued at the samples it coalesced.
	BatchSizeHist *obs.Histogram `json:"-"`
	// PerModel is the same snapshot scoped to each hosted model, in hosting
	// order (nil on a scoped snapshot). It is built from the one pass over
	// the pools that produced the aggregate, so the aggregate's counters are
	// exactly the sums of these — the fleet layer derives its per-model view
	// from it instead of snapshotting the pools a second time. Excluded from
	// JSON like LatencyHist.
	PerModel []Stats `json:"-"`
}

// statsAgg accumulates one pool's serving statistics.
type statsAgg struct {
	mu           sync.Mutex
	start        time.Time
	requests     int64
	errors       int64
	batches      int64
	largestBatch int
	workerBusy   []float64 // modeled seconds per worker
	// hostBusy accumulates real host time spent inside successful protocol
	// runs, for the measured ns/op figure.
	hostBusy time.Duration
	// queueWait accumulates host-side queueing delay over queueWaited samples.
	queueWait   time.Duration
	queueWaited int64
	// hist is the pool's per-request modeled-latency histogram (seconds).
	// It is written and snapshotted only under mu, together with the
	// counters, so hist.Count() == requests in every snapshot.
	hist obs.Histogram
	// waitHist (per request, seconds queued) and sizeHist (per run, samples
	// coalesced) follow the same rule: waitHist.Count() == queueWaited and
	// sizeHist.Count() == batches in every snapshot.
	waitHist, sizeHist obs.Histogram
}

// record accounts one protocol run over live's samples: its counters and one
// histogram observation per sample, under one lock hold.
func (a *statsAgg) record(worker int, live []*request, o *outcome) {
	size := 0
	for _, r := range live {
		size += r.samples()
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.batches++
	a.sizeHist.Observe(float64(size), "")
	a.queueWaited += int64(size)
	for _, r := range live {
		for range r.out {
			a.queueWait += r.wait
			a.waitHist.Observe(r.wait.Seconds(), r.span.ID())
		}
	}
	if o.err != nil {
		a.errors += int64(size)
		return
	}
	a.requests += int64(size)
	a.hostBusy += o.hostNs
	if size > a.largestBatch {
		a.largestBatch = size
	}
	for _, r := range live {
		for range r.out {
			a.hist.Observe(o.lat, r.span.ID())
		}
	}
	// A resize can install a wider generation than the pool started with;
	// the per-worker busy ledger grows to fit the largest width seen.
	for worker >= len(a.workerBusy) {
		a.workerBusy = append(a.workerBusy, 0)
	}
	a.workerBusy[worker] += o.lat
}

// poolSnapshot is one pool's raw aggregate, merged by the Stats methods.
type poolSnapshot struct {
	name, precision           string
	requests, errors, batches int64
	largestBatch              int
	queueDepth                int
	swaps                     int64
	hostBusy                  time.Duration
	queueWait                 time.Duration
	queueWaited               int64
	critical                  float64 // busiest worker's modeled seconds
	hist, waitHist, sizeHist  *obs.Histogram
}

// snapshot reads the pool's counters and histogram under one hold of the
// stats lock, and its precision off the installed generation — never a lock
// a swap or a batch handoff holds.
func (p *pool) snapshot() poolSnapshot {
	a := &p.stats
	a.mu.Lock()
	defer a.mu.Unlock()
	out := poolSnapshot{
		name:         p.name,
		precision:    p.gen.Load().precision,
		requests:     a.requests,
		errors:       a.errors,
		batches:      a.batches,
		largestBatch: a.largestBatch,
		queueDepth:   len(p.queue),
		swaps:        p.swaps.Load(),
		hostBusy:     a.hostBusy,
		queueWait:    a.queueWait,
		queueWaited:  a.queueWaited,
		hist:         a.hist.Snapshot(),
		waitHist:     a.waitHist.Snapshot(),
		sizeHist:     a.sizeHist.Snapshot(),
	}
	for _, b := range a.workerBusy {
		if b > out.critical {
			out.critical = b
		}
	}
	return out
}

// mergeStats folds pool snapshots into one Stats value scoped to model (""
// for the server-wide aggregate).
func (s *Server) mergeStats(model string, snaps []poolSnapshot) Stats {
	out := Stats{
		Device:          s.device.Name(),
		Model:           model,
		Models:          len(snaps),
		PeakSecureBytes: s.budget.Peak(),
		Workers:         s.Workers(),
		WallSeconds:     time.Since(s.start).Seconds(),
		LatencyHist:     &obs.Histogram{},
		QueueWaitHist:   &obs.Histogram{},
		BatchSizeHist:   &obs.Histogram{},
	}
	var queueWait time.Duration
	var queueWaited int64
	var hostBusy time.Duration
	for i, sn := range snaps {
		if i == 0 {
			out.Precision = sn.precision
		} else if out.Precision != sn.precision {
			out.Precision = "mixed"
		}
		out.Requests += sn.requests
		out.Errors += sn.errors
		out.Batches += sn.batches
		out.QueueDepth += sn.queueDepth
		out.Swaps += sn.swaps
		if sn.largestBatch > out.LargestBatch {
			out.LargestBatch = sn.largestBatch
		}
		if sn.critical > 0 {
			out.ModeledThroughput += float64(sn.requests) / sn.critical
		}
		hostBusy += sn.hostBusy
		queueWait += sn.queueWait
		queueWaited += sn.queueWaited
		out.LatencyHist.Merge(sn.hist)
		out.QueueWaitHist.Merge(sn.waitHist)
		out.BatchSizeHist.Merge(sn.sizeHist)
	}
	if out.Batches > 0 {
		out.MeanBatch = float64(out.Requests) / float64(out.Batches)
	}
	if queueWaited > 0 {
		out.AvgQueueWaitMicros = float64(queueWait.Microseconds()) / float64(queueWaited)
	}
	if out.Requests > 0 {
		out.HostNsPerOp = float64(hostBusy.Nanoseconds()) / float64(out.Requests)
	}
	p50, p95, p99 := out.LatencyHist.Percentiles()
	out.P50Latency, out.P95Micros, out.P99Latency = p50, p95*1e6, p99
	return out
}

// Stats returns a snapshot of the server's counters, aggregated across every
// hosted model. Every pool is snapshotted exactly once; the aggregate and
// its PerModel breakdown are two views of that one pass.
func (s *Server) Stats() Stats {
	s.modelMu.RLock()
	snaps := make([]poolSnapshot, len(s.names))
	for i, name := range s.names {
		snaps[i] = s.models[name].snapshot()
	}
	s.modelMu.RUnlock()
	st := s.mergeStats("", snaps)
	st.PerModel = make([]Stats, len(snaps))
	for i := range snaps {
		st.PerModel[i] = s.mergeStats(snaps[i].name, snaps[i:i+1])
	}
	return st
}
