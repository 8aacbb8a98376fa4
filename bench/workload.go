package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"time"

	"tbnet"
	"tbnet/internal/core"
	"tbnet/internal/fleet"
	"tbnet/internal/httpd"
	"tbnet/internal/obs"
	"tbnet/internal/seceval"
	"tbnet/internal/tee"
	"tbnet/internal/tensor"
	"tbnet/internal/zoo"
)

const (
	classes = 10
	// defenseChain is the obfuscation chain of the defended workload, and the
	// chain the tap-overhead rung prices on every workload.
	defenseChain = "pad:1024,shuffle:8,dummy:0.25"
	tapRunLimit  = 256
	traceRing    = 4096
	// swapModelName is the registry entry the churn alternates the default
	// model with.
	swapModelName = "default-b"
)

// sampleShape is the one input shape the zoo configs are sized for.
var sampleShape = []int{1, 3, 16, 16}

// modelSpec is one hosted model: how to build its victim and how it is
// served. The first model of a workload is the fleet's default model.
type modelSpec struct {
	name     string
	build    func(*tensor.RNG) *zoo.Model
	int8     bool
	seedSalt uint64  // models with equal salt share weights across workloads
	share    float64 // of requests addressed to this model
}

func vgg18(rng *tensor.RNG) *zoo.Model   { return zoo.BuildVGG(zoo.VGG18Config(classes), rng) }
func tinyVGG(rng *tensor.RNG) *zoo.Model { return zoo.BuildVGG(zoo.TinyVGGConfig(classes), rng) }
func mobileNet(rng *tensor.RNG) *zoo.Model {
	return zoo.BuildMobileNet(zoo.MobileNetSConfig(classes), rng)
}
func resNet20(rng *tensor.RNG) *zoo.Model {
	return zoo.BuildResNet(zoo.ResNet20Config(classes), true, rng)
}

// deploy builds the seeded victim, wraps it as a finalized two-branch model
// (no training: the benchmark measures serving, and serving cost does not
// depend on what the weights learned) and deploys it on the paper's device.
func (m modelSpec) deploy(seed uint64) (*core.Deployment, error) {
	seed += m.seedSalt
	tb := core.NewTwoBranch(m.build(tensor.NewRNG(seed)), seed+1)
	tb.Finalized = true
	if m.int8 {
		return core.DeployInt8(tb, tee.RaspberryPi3(), sampleShape)
	}
	return core.Deploy(tb, tee.RaspberryPi3(), sampleShape)
}

// workload is one traffic mix against one daemon configuration. Why each
// exists is recorded in BENCHMARK.json and README.md.
type workload struct {
	name     string
	models   []modelSpec
	nodes    int // homogeneous rpi3 nodes
	workers  int // per node
	maxBatch int // 0 keeps the daemon default (8)
	policy   func() fleet.Policy
	clients  int  // closed-loop load-generator goroutines = connections (at most 2)
	perReq   int  // samples per request: 1 posts /v1/infer, more posts /v1/infer/batch
	defended bool // tracer + tap + obfuscation chain + swap/scrape churn
}

var workloads = []workload{
	{
		name:   "edge_single",
		models: []modelSpec{{name: fleet.DefaultModel, build: vgg18, share: 1}},
		nodes:  1, workers: 1, policy: fleet.CostAware,
		clients: 1, perReq: 1,
	},
	{
		name:   "fleet_batch_int8",
		models: []modelSpec{{name: fleet.DefaultModel, build: vgg18, int8: true, share: 1}},
		nodes:  2, workers: 1, policy: fleet.CostAware,
		clients: 2, perReq: 16,
	},
	{
		name:   "tiny_rpc",
		models: []modelSpec{{name: fleet.DefaultModel, build: tinyVGG, share: 1}},
		nodes:  1, workers: 2, maxBatch: 1, policy: fleet.CostAware,
		clients: 2, perReq: 1,
	},
	{
		name: "defended_churn",
		models: []modelSpec{
			{name: fleet.DefaultModel, build: mobileNet, share: 0.75},
			{name: "canary", build: resNet20, int8: true, seedSalt: 200, share: 0.25},
		},
		nodes: 2, workers: 1, policy: fleet.CostAware,
		clients: 2, perReq: 1, defended: true,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// publish deploys every model of the workload and saves it into the
// registry, the way a vendor ships artifacts; the daemon side only ever
// loads them. The defended workload also publishes the model its churn swaps
// the default with. It returns the deployments by registry name for the
// oracle and the ladder.
func (w *workload) publish(reg *tbnet.Registry, seed uint64) (map[string]*core.Deployment, error) {
	specs := w.models
	if w.defended {
		alt := w.models[0]
		alt.name, alt.seedSalt = swapModelName, 100
		specs = append(append([]modelSpec(nil), specs...), alt)
	}
	deps := make(map[string]*core.Deployment, len(specs))
	for _, m := range specs {
		dep, err := m.deploy(seed)
		if err != nil {
			return nil, fmt.Errorf("deploying %s: %w", m.name, err)
		}
		if _, err := reg.Save(m.name, dep); err != nil {
			return nil, fmt.Errorf("publishing %s: %w", m.name, err)
		}
		deps[m.name] = dep
	}
	return deps, nil
}

// stack is one running daemon: registry-loaded models in a fleet behind
// httpd on a loopback socket.
type stack struct {
	fleet *fleet.Fleet
	srv   *httpd.Server
	own   *http.Server // set when the handler is wrapped for tracing
	url   string
	tap   *seceval.Tap
	alt   *core.Deployment // the churn's other default model, loaded from the registry
	def   *core.Deployment
	done  chan error

	// Cold-start split, for registry.load_us and fleet.start_us.
	loadTime, fleetTime time.Duration
}

// start brings the daemon up the way a restart pays for it: registry load
// (hash check + parse + deploy) → fleet.New (replicate + warm) → httpd.New →
// listen. With a sink the handler is wrapped so every request leaves an
// httpd.handler span joined on X-Request-Id; without one the daemon serves
// exactly as tbnetd does.
func (w *workload) start(reg *tbnet.Registry, seed uint64, sink *spanSink) (*stack, error) {
	st := &stack{done: make(chan error, 1)}
	t0 := time.Now()
	var extra []fleet.NamedModel
	for i, m := range w.models {
		dep, err := reg.Load(m.name)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			st.def = dep
		} else {
			extra = append(extra, fleet.NamedModel{Name: m.name, Dep: dep})
		}
	}
	if w.defended {
		alt, err := reg.Load(swapModelName)
		if err != nil {
			return nil, err
		}
		st.alt = alt
	}
	st.loadTime = time.Since(t0)

	cfg := fleet.Config{Models: extra, Policy: w.policy(), MaxBatch: w.maxBatch}
	for i := 0; i < w.nodes; i++ {
		cfg.Nodes = append(cfg.Nodes, fleet.NodeConfig{Device: tee.RaspberryPi3(), Workers: w.workers})
	}
	var tracer *obs.Tracer
	if w.defended {
		chain, err := seceval.ParseChain(defenseChain)
		if err != nil {
			return nil, err
		}
		tracer = obs.NewTracer(traceRing)
		st.tap = seceval.NewTap(seceval.WithObfuscation(chain), seceval.WithSeed(int64(seed)),
			seceval.WithRunLimit(tapRunLimit))
		cfg.Tracer, cfg.Tap = tracer, st.tap
	}
	t1 := time.Now()
	f, err := fleet.New(st.def, cfg)
	if err != nil {
		return nil, err
	}
	st.fleetTime = time.Since(t1)
	st.fleet = f

	// The daemon formats one log line per request; the benchmark keeps that
	// cost and discards the bytes, so a terminal's speed is not measured.
	st.srv, err = httpd.New(httpd.Config{
		Fleet:  f,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		Tracer: tracer,
		Tap:    st.tap,
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Close()
		return nil, err
	}
	st.url = "http://" + l.Addr().String()
	if sink == nil {
		go func() { st.done <- st.srv.Serve(l) }()
		return st, nil
	}
	st.own = &http.Server{Handler: sink.wrapHandler(st.srv.Handler())}
	go func() {
		if err := st.own.Serve(l); err != http.ErrServerClosed {
			st.done <- err
			return
		}
		st.done <- nil
	}()
	return st, nil
}

// stop drains the daemon and waits for its accept loop to return.
func (st *stack) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var err error
	if st.own != nil {
		// httpd.Server.Shutdown waits on state only Serve sets up, so a
		// daemon served through the wrapped handler is drained piecewise.
		if err = st.own.Shutdown(ctx); err == nil {
			err = st.fleet.Drain(ctx)
		}
	} else {
		err = st.srv.Shutdown(ctx)
	}
	if err != nil {
		st.fleet.Close()
		return err
	}
	return <-st.done
}
