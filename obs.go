package tbnet

import (
	"fmt"

	"tbnet/internal/buildinfo"
	"tbnet/internal/obs"
)

// Version is the tbnet release version — what the binaries print for
// -version and what the daemon stamps into its tbnet_build_info metric.
const Version = buildinfo.Version

// Tracer records per-request span timelines — one span per served request,
// marking each lifecycle stage (ingress, queued, batched, ree, tee, pace,
// respond) — into a preallocated bounded ring, allocation-free in steady
// state. Hand one tracer to both the fleet (WithTracing) and the HTTP daemon
// so a request's span is started at the socket and annotated by the worker
// that executes it. Read captured timelines back with Tracer.Snapshot; a nil
// *Tracer is valid everywhere and disables tracing.
type Tracer = obs.Tracer

// SpanData is one captured request timeline from a Tracer snapshot: the
// request id, routed model and node, total wall milliseconds, and the
// per-stage breakdown in the order the stages were recorded.
type SpanData = obs.SpanData

// NewTracer returns a Tracer whose ring holds the last capacity request
// spans (minimum 16). The ring is preallocated up front; recording wraps,
// overwriting the oldest spans, and never allocates.
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// WithTracing records a span timeline for every fleet request into tr: queue
// wait, micro-batch assembly, the REE and TEE world costs, pacing, and the
// routed model and node. Share tr with the HTTP layer to extend the same
// spans from socket to socket. A nil tracer fails with ErrBadOption; simply
// omit the option to serve untraced.
func WithTracing(tr *Tracer) FleetOption {
	return func(o *fleetOptions) error {
		if tr == nil {
			return fmt.Errorf("%w: nil tracer", ErrBadOption)
		}
		o.cfg.Tracer = tr
		return nil
	}
}
