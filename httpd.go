package tbnet

import "tbnet/internal/httpd"

// HTTPServer is TBNet's network-facing serving daemon: an HTTP/JSON API over
// a Fleet, fronted by a composable middleware chain (panic recovery, request
// IDs, structured logging, API-key auth, per-tenant rate limits) and exposing
// Prometheus metrics, zero-downtime swap-over-HTTP, and graceful drain. See
// the httpd package documentation for the wire surface.
type HTTPServer = httpd.Server

// HTTPConfig assembles an HTTPServer. Fleet is required; everything else
// defaults to an open, unlimited server.
type HTTPConfig = httpd.Config

// HTTPRateLimit is the daemon's per-tenant token-bucket policy: a sustained
// request rate with a burst allowance. The zero value disables rate limiting.
type HTTPRateLimit = httpd.RateLimit

// NewHTTPServer assembles a network daemon from cfg. Serve it on a listener
// with HTTPServer.Serve and stop it gracefully — draining the fleet without
// dropping an admitted request — with HTTPServer.Shutdown.
func NewHTTPServer(cfg HTTPConfig) (*HTTPServer, error) { return httpd.New(cfg) }
