// Package httpd is TBNet's network-facing serving layer: an HTTP/JSON API
// daemon wrapped around a fleet.Fleet, so that everything the in-process
// stack can do — single and batched inference, named-model routing,
// zero-downtime hot swap, statistics — is reachable over a socket.
//
// The wire surface is deliberately small:
//
//	POST /v1/infer                 one sample in, one label out
//	POST /v1/infer/batch           many samples in, NDJSON results streamed out
//	GET  /v1/models                hosted pools (+ registry entries, if attached)
//	POST /v1/models/{name}/swap    hot-swap a hosted model from an artifact body
//	GET  /healthz                  liveness (503 while draining)
//	GET  /metrics                  Prometheus text exposition (histograms with exemplars)
//	GET  /debug/trace              recent request span timelines, filterable by ?min_ms=
//	GET  /debug/pprof/*            Go profiling endpoints (opt-in, behind auth)
//
// In front of the handlers sits a composable middleware chain, following the
// defense-in-depth layering of production TEE services: each concern — panic
// recovery, request IDs, structured logging, API-key authentication,
// per-tenant token-bucket rate limiting — is an independent layer that can
// be tested and reasoned about alone, and a request must pass every layer to
// reach the TEE-backed inference path. Admission-control failures map onto
// proper status codes through one error→status table (see status.go):
// overload and draining answer 503 with Retry-After, rate limiting 429,
// deadline expiry 504, unknown models 404.
//
// The daemon is built for graceful shutdown: Shutdown stops accepting
// connections, lets in-flight HTTP requests finish, then drains the fleet
// (Fleet.Drain), so a SIGTERM rollout drops zero admitted requests. A
// session-reaper analogue expires hosted models that have seen no traffic
// for an idle TTL, reclaiming their secure-memory reservations for the
// models that are actually being served.
package httpd

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"tbnet/internal/fleet"
	"tbnet/internal/obs"
	"tbnet/internal/registry"
	"tbnet/internal/seceval"
)

// ErrHTTPConfig reports an invalid daemon configuration.
var ErrHTTPConfig = errors.New("httpd: invalid configuration")

// RateLimit is a per-tenant token-bucket policy: a sustained request rate
// with a burst allowance. The zero value disables rate limiting.
type RateLimit struct {
	// RPS is the sustained per-tenant request rate (tokens refilled per
	// second).
	RPS float64
	// Burst is the bucket capacity — how many requests a tenant may fire
	// back-to-back before the sustained rate applies (default: ceil(RPS)).
	Burst int
}

// Config assembles a daemon. Fleet is required; everything else defaults to
// an open, unlimited server (no auth, no rate limit, no reaper).
type Config struct {
	// Fleet is the serving fleet every inference endpoint routes into.
	Fleet *fleet.Fleet
	// Registry optionally attaches a model store: /v1/models lists its
	// entries alongside the live pools, and swap requests may name an entry
	// with ?from=<name> instead of shipping artifact bytes.
	Registry *registry.Store
	// APIKeys maps API keys to tenant names. When non-empty, every /v1/*
	// request must carry a known key (Authorization: Bearer <key> or
	// X-API-Key: <key>) and is attributed to its tenant for rate limiting
	// and logging. Empty disables authentication.
	APIKeys map[string]string
	// RateLimit is the per-tenant token-bucket policy (zero value: no
	// limit). Without APIKeys all traffic shares one anonymous bucket.
	RateLimit RateLimit
	// IdleTTL expires hosted models (never the default one) that have seen
	// no traffic for this long, reclaiming their secure memory; 0 disables
	// the reaper. The reaper scans every IdleTTL/4, at least 100ms apart.
	IdleTTL time.Duration
	// RetryAfter is the Retry-After hint attached to 429/503 answers,
	// rounded up to whole seconds (default 1s; must not be negative).
	RetryAfter time.Duration
	// Logger receives the structured request log (default slog.Default()).
	Logger *slog.Logger
	// Tracer, when set, records a span timeline for every API request —
	// started under its X-Request-Id by the tracing middleware, filled in by
	// the serving layers down to the per-world execution split — and backs
	// GET /debug/trace. Share the same tracer with fleet.Config.Tracer so
	// the middleware-started spans are the ones the workers annotate. Nil
	// disables tracing and the trace endpoint.
	Tracer *obs.Tracer
	// SlowThreshold journals requests whose wall time reaches it: a WARN
	// line with the request's full span stage breakdown, sampled to at most
	// one line per second. 0 disables the journal.
	SlowThreshold time.Duration
	// EnablePprof mounts the net/http/pprof profiling handlers under
	// /debug/pprof/. Like /debug/trace they sit behind API-key auth when
	// keys are configured — profiles expose timing detail of the secure
	// protocol, so they are never left open by accident.
	EnablePprof bool
	// Tap, when set, is the trace-obfuscation tap installed on the fleet
	// (fleet.Config.Tap / tbnet.WithFleetTap): /metrics then exposes the
	// tbnet_obfuscation_* counter families for its per-layer spend.
	Tap *seceval.Tap
}

func (c Config) withDefaults() Config {
	if c.RetryAfter == 0 {
		c.RetryAfter = time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.RateLimit.RPS > 0 && c.RateLimit.Burst == 0 {
		c.RateLimit.Burst = int(c.RateLimit.RPS + 0.999)
	}
	return c
}

func (c Config) validate() error {
	if c.Fleet == nil {
		return fmt.Errorf("%w: nil fleet", ErrHTTPConfig)
	}
	if c.RateLimit.RPS < 0 || c.RateLimit.Burst < 0 {
		return fmt.Errorf("%w: rate limit %g rps / burst %d", ErrHTTPConfig, c.RateLimit.RPS, c.RateLimit.Burst)
	}
	if c.IdleTTL < 0 {
		return fmt.Errorf("%w: negative idle TTL %v", ErrHTTPConfig, c.IdleTTL)
	}
	if c.RetryAfter < 0 {
		return fmt.Errorf("%w: negative retry-after %v", ErrHTTPConfig, c.RetryAfter)
	}
	if c.SlowThreshold < 0 {
		return fmt.Errorf("%w: negative slow-log threshold %v", ErrHTTPConfig, c.SlowThreshold)
	}
	for k, tenant := range c.APIKeys {
		if k == "" || tenant == "" {
			return fmt.Errorf("%w: empty API key or tenant", ErrHTTPConfig)
		}
	}
	return nil
}

// Server is the network daemon: the middleware-wrapped handler tree over a
// fleet, plus the reaper and graceful-shutdown machinery. Create one with
// New, serve it with Serve (or mount Handler in an existing http.Server),
// and stop it with Shutdown.
type Server struct {
	cfg     Config
	handler http.Handler
	metrics *httpMetrics
	reaper  *reaper

	draining atomic.Bool
	// httpSrv is built by New and never reassigned, so Serve and Shutdown
	// may run on different goroutines, in either order, without sharing a
	// write: a Shutdown that comes first makes a later Serve close its
	// listener and return nil at once.
	httpSrv *http.Server
}

// New assembles a daemon from cfg. The fleet stays owned by the caller until
// Shutdown, which drains and closes it.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, metrics: newHTTPMetrics()}
	// With IdleTTL 0 the reaper only tracks touches: its loop never starts.
	s.reaper = newReaper(cfg.Fleet, cfg.IdleTTL, cfg.Logger, s.metrics)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/infer", s.handleInfer)
	mux.HandleFunc("POST /v1/infer/batch", s.handleInferBatch)
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("POST /v1/models/{name}/swap", s.handleSwap)
	// The debug surface: recent span timelines, and (opt-in) the stock Go
	// profiling endpoints. Neither path is auth-exempt — with API keys
	// configured, trace timelines and pprof profiles need a credential.
	mux.HandleFunc("GET /debug/trace", s.handleDebugTrace)
	if cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	// The chain, outermost first: recovery catches panics from every inner
	// layer (logging included), tracing opens the request span that logging
	// (for the slow journal) and the serving layers below annotate, logging
	// observes the final status of each request, auth establishes the tenant
	// identity that rate limiting buckets by.
	s.handler = Chain(mux,
		Recover(cfg.Logger, s.metrics),
		RequestID(),
		Tracing(cfg.Tracer),
		Logging(cfg.Logger, s.metrics, cfg.SlowThreshold),
		Auth(cfg.APIKeys),
		RateLimitBy(cfg.RateLimit, cfg.RetryAfter, s.metrics),
	)
	s.httpSrv = &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s, nil
}

// Handler returns the daemon's full middleware-wrapped handler tree, for
// mounting in an existing http.Server or a test.
func (s *Server) Handler() http.Handler { return s.handler }

// Serve accepts connections on l until Shutdown (which returns nil here) or
// a listener error. It owns an internal http.Server, so a daemon main is
// just New + Listen + Serve + Shutdown-on-signal. After Shutdown — even one
// that ran before Serve was ever called — Serve closes l and returns nil
// without accepting.
func (s *Server) Serve(l net.Listener) error {
	s.reaper.start()
	err := s.httpSrv.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown gracefully stops the daemon: the health check flips to draining,
// the listener stops accepting, every in-flight HTTP request runs to
// completion (each may still finish its fleet inference), and the fleet
// itself then drains and closes — so a SIGTERM rollout drops zero admitted
// requests. If ctx expires mid-drain, Shutdown hard-closes what remains and
// returns the context's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.reaper.stop()
	if err := s.httpSrv.Shutdown(ctx); err != nil {
		s.cfg.Fleet.Close()
		return fmt.Errorf("httpd: shutdown: %w", err)
	}
	// No HTTP handler is running anymore, so the fleet's in-flight count
	// can only fall; Drain closes the fleet once it reaches zero.
	if err := s.cfg.Fleet.Drain(ctx); err != nil {
		s.cfg.Fleet.Close()
		return err
	}
	return nil
}
