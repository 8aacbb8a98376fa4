package tbnet

import (
	"fmt"
	"time"

	"tbnet/internal/serve"
)

// Server is the concurrent serving layer over deployed models: per-model
// pools of replicated enclave sessions behind micro-batching request queues,
// all drawing secure memory from one device-sized budget. Create one with
// Serve; the deployment it is built from is hosted as DefaultModel. Host
// further named models with Server.AddModel, address them with
// Server.InferModel, and hot-swap a hosted model's replicas without dropping
// a request with Server.SwapModel (warm the new pool first, then drain the
// old). See the serve package documentation for the execution model.
type Server = serve.Server

// ServerStats is a point-in-time snapshot of a Server's behaviour —
// throughput, realized batch sizes, queue depth, hot-swap count, and
// p50/p95/p99 modeled device latency — aggregated across its hosted models
// (PerModel holds one scoped snapshot per model).
type ServerStats = serve.Stats

// ServeOption configures a Server.
type ServeOption func(*serve.Config) error

// WithWorkers sets the number of replicated enclave sessions serving in
// parallel (default 2). Each worker owns deep copies of both branches and
// its own enclave, meter, and trace; all workers draw their secure-memory
// reservations from one device-sized budget, so an over-wide pool fails
// with ErrSecureMemory instead of overcommitting the modeled hardware.
func WithWorkers(n int) ServeOption {
	return func(c *serve.Config) error {
		if n < 1 {
			return fmt.Errorf("%w: workers %d < 1", ErrBadOption, n)
		}
		c.Workers = n
		return nil
	}
}

// WithMaxBatch sets the micro-batch flush size (default 8). Every worker
// replica reserves secure memory for this batch capacity against the shared
// device budget, so Serve fails with ErrSecureMemory if the pool's batched
// working set does not fit the device.
func WithMaxBatch(n int) ServeOption {
	return func(c *serve.Config) error {
		if n < 1 {
			return fmt.Errorf("%w: max batch %d < 1", ErrBadOption, n)
		}
		c.MaxBatch = n
		return nil
	}
}

// WithMaxDelay sets how long an incomplete batch is held back for more
// traffic while a worker is idle. The default, 0, never holds one: batching
// is work-conserving — a lone request runs at once, and batches form only
// while every worker is busy. A positive d trades that latency for
// coalescing at partial load; d must not be negative.
func WithMaxDelay(d time.Duration) ServeOption {
	return func(c *serve.Config) error {
		if d < 0 {
			return fmt.Errorf("%w: negative max delay %v", ErrBadOption, d)
		}
		c.MaxDelay = d
		return nil
	}
}

// Serve starts a concurrent serving layer over a deployed model. The
// deployment is used as the replication template only — the server builds
// one independent session per worker — so the caller keeps exclusive use of
// dep's own session. Stop the server with Server.Close.
//
//	srv, err := tbnet.Serve(dep, tbnet.WithWorkers(4), tbnet.WithMaxBatch(8))
//	...
//	label, err := srv.Infer(ctx, x)
func Serve(dep *Deployment, opts ...ServeOption) (*Server, error) {
	if dep == nil {
		return nil, fmt.Errorf("%w: nil deployment", ErrBadOption)
	}
	var cfg serve.Config
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	return serve.New(dep, cfg)
}
