package httpd

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tbnet/internal/obs"
)

// ErrRateLimited reports a request refused by the per-tenant token bucket:
// the tenant exhausted its burst allowance and its sustained rate. The
// answer is 429 with a Retry-After hint; the request never reached the
// fleet.
var ErrRateLimited = errors.New("httpd: rate limited")

// Middleware is one layer of the request-processing chain: it wraps a
// handler with an independent concern (recovery, identity, logging,
// admission) and either passes the request inward or answers it itself.
type Middleware func(http.Handler) http.Handler

// Chain wraps h in the given middlewares, first argument outermost — the
// request traverses them in argument order on the way in.
func Chain(h http.Handler, mw ...Middleware) http.Handler {
	for i := len(mw) - 1; i >= 0; i-- {
		h = mw[i](h)
	}
	return h
}

// ctxKey is the private type of the chain's context keys.
type ctxKey int

const (
	ctxKeyRequestID ctxKey = iota
	ctxKeyTenant
)

// RequestIDFrom returns the request ID the chain assigned (or accepted) for
// this request, "" outside a RequestID-wrapped handler.
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ctxKeyRequestID).(string)
	return id
}

// TenantFrom returns the tenant name Auth attributed to this request;
// "anonymous" when authentication is disabled or the path is operational.
func TenantFrom(ctx context.Context) string {
	t, _ := ctx.Value(ctxKeyTenant).(string)
	if t == "" {
		return "anonymous"
	}
	return t
}

// requestIDHeader is the request/response header carrying the request ID.
const requestIDHeader = "X-Request-Id"

var requestSeq atomic.Uint64

// newRequestID mints a unique id: a random prefix (per process) plus a
// monotone sequence number, cheap enough for every request.
var requestIDPrefix = func() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "tbnet"
	}
	return hex.EncodeToString(b[:])
}()

func newRequestID() string {
	return fmt.Sprintf("%s-%06d", requestIDPrefix, requestSeq.Add(1))
}

// RequestID assigns every request an ID — honouring one the client already
// sent in X-Request-Id — exposes it to inner layers via RequestIDFrom, and
// echoes it on the response, so one ID follows a request through client
// logs, the daemon's structured log, and the answer.
func RequestID() Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			id := r.Header.Get(requestIDHeader)
			if id == "" || len(id) > 128 {
				id = newRequestID()
			}
			w.Header().Set(requestIDHeader, id)
			next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), ctxKeyRequestID, id)))
		})
	}
}

// statusRecorder captures the status code and body size a handler wrote,
// for the log line and the tracing middleware's error flag.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

// recorderFor wraps w in a statusRecorder, reusing one an outer middleware
// already installed so Tracing and Logging observe the same status.
func recorderFor(w http.ResponseWriter) *statusRecorder {
	if sr, ok := w.(*statusRecorder); ok {
		return sr
	}
	return &statusRecorder{ResponseWriter: w}
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	n, err := sr.ResponseWriter.Write(b)
	sr.bytes += int64(n)
	return n, err
}

// Flush forwards streaming flushes (the NDJSON batch endpoint) through the
// recorder.
func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// operational is the one set of probe and scrape endpoints. They stay
// reachable without a key and outside the rate limit, so probes and scrapers
// need no credentials, and they are not traced: they would otherwise churn
// the bounded span ring and evict the inference timelines it exists to
// retain.
var operational = map[string]bool{"/healthz": true, "/metrics": true}

// Tracing starts a per-request span in the tracer ring — under the ID the
// RequestID layer assigned, so the span joins client logs, the request log,
// and histogram exemplars — carries it inward via the request context for
// the serving layers to fill in, and seals it with the response status once
// the handler returns. A nil tracer leaves the chain untouched. Probe and
// scrape paths are not traced (see operational).
func Tracing(tr *obs.Tracer) Middleware {
	if tr == nil {
		return func(next http.Handler) http.Handler { return next }
	}
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if operational[r.URL.Path] || strings.HasPrefix(r.URL.Path, "/debug/") {
				next.ServeHTTP(w, r)
				return
			}
			span := tr.Start(RequestIDFrom(r.Context()))
			rec := recorderFor(w)
			next.ServeHTTP(rec, r.WithContext(obs.ContextWith(r.Context(), span)))
			span.Finish(rec.status >= http.StatusInternalServerError)
		})
	}
}

// slowLogGap is the slow journal's sampling interval: at most one line per
// gap, with the number of slow requests suppressed since carried on the next
// line — a saturated daemon, where every request is slow, logs one breakdown
// a second instead of flooding the log.
const slowLogGap = time.Second

// Logging emits one structured line per request — method, path, status,
// bytes written, duration, tenant, and request ID — feeds the per-status
// counters and the wall-duration histogram behind /metrics, and keeps the
// sampled slow-request journal: a request at or over slowThreshold (0
// disables the journal) gets a
// WARN line carrying its full span stage breakdown (queue wait, batching,
// REE/TEE execution, pacing), the data needed to attribute the latency
// without re-running the request. It sits inside RequestID and Tracing (so
// the ID and the live span are in context) and outside the admission layers
// (so refusals are logged too).
func Logging(log *slog.Logger, m *httpMetrics, slowThreshold time.Duration) Middleware {
	var lastSlow atomic.Int64   // unix ns of the last journal line
	var suppressed atomic.Int64 // slow requests skipped by sampling since then
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			rec := recorderFor(w)
			next.ServeHTTP(rec, r)
			if rec.status == 0 {
				rec.status = http.StatusOK
			}
			dur := time.Since(start)
			id := RequestIDFrom(r.Context())
			m.observe(rec.status)
			m.reqDur.Observe(dur.Seconds(), id)
			// Typed attributes through LogAttrs box nothing, so the access
			// line allocates only what the handler writes.
			log.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.String("request_id", id),
				slog.String("tenant", TenantFrom(r.Context())),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", rec.status),
				slog.Int64("bytes", rec.bytes),
				slog.Float64("duration_ms", float64(dur.Microseconds())/1e3),
			)
			if slowThreshold <= 0 || dur < slowThreshold {
				return
			}
			m.slow.Add(1)
			// Sampling: claim the journal slot only if slowLogGap has
			// passed since the last line; otherwise count the suppression.
			now := time.Now().UnixNano()
			last := lastSlow.Load()
			if now-last < int64(slowLogGap) || !lastSlow.CompareAndSwap(last, now) {
				suppressed.Add(1)
				return
			}
			attrs := []any{
				"request_id", id,
				"method", r.Method,
				"path", r.URL.Path,
				"status", rec.status,
				"duration_ms", float64(dur.Microseconds()) / 1e3,
				"threshold_ms", float64(slowThreshold.Microseconds()) / 1e3,
				"suppressed", suppressed.Swap(0),
			}
			if d, ok := obs.FromContext(r.Context()).Data(); ok {
				attrs = append(attrs,
					"model", d.Model,
					"node", d.Node,
					"stages", d.StagesString(),
				)
			}
			log.Warn("slow request", attrs...)
		})
	}
}

// Recover converts a handler panic into a 500 answer and a logged stack
// marker instead of a dead connection and a crashed daemon. It is the
// outermost layer, so a bug anywhere inside the chain cannot take the
// process down.
func Recover(log *slog.Logger, m *httpMetrics) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			defer func() {
				if v := recover(); v != nil {
					m.panics.Add(1)
					m.observe(http.StatusInternalServerError)
					log.Error("panic recovered",
						"request_id", RequestIDFrom(r.Context()),
						"path", r.URL.Path,
						"panic", fmt.Sprint(v),
					)
					// The header may already be out if the handler panicked
					// mid-stream; in that case the connection is poisoned
					// anyway and this write is a no-op.
					writeJSONError(w, r, http.StatusInternalServerError, "internal error")
				}
			}()
			next.ServeHTTP(w, r)
		})
	}
}

// authTenant resolves the request's API key. The key travels either as
// "Authorization: Bearer <key>" or in "X-API-Key".
func authTenant(r *http.Request, keys map[string]string) (string, bool) {
	key := r.Header.Get("X-API-Key")
	if key == "" {
		if h := r.Header.Get("Authorization"); strings.HasPrefix(h, "Bearer ") {
			key = strings.TrimPrefix(h, "Bearer ")
		}
	}
	tenant, ok := keys[key]
	return tenant, ok && key != ""
}

// Auth enforces API-key authentication on every non-operational path and
// records the key's tenant in the request context for rate limiting and logging.
// With an empty key set the layer only stamps the anonymous tenant —
// authentication is disabled, not bypassed-by-accident (the chain shape is
// identical either way).
func Auth(keys map[string]string) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if len(keys) == 0 || operational[r.URL.Path] {
				next.ServeHTTP(w, r)
				return
			}
			tenant, ok := authTenant(r, keys)
			if !ok {
				writeJSONError(w, r, http.StatusUnauthorized, "missing or unknown API key")
				return
			}
			next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), ctxKeyTenant, tenant)))
		})
	}
}

// bucket is one tenant's token bucket.
type bucket struct {
	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// limiterPool lazily allocates one bucket per tenant. Buckets never share
// tokens: one tenant exhausting its budget cannot starve another.
type limiterPool struct {
	mu      sync.Mutex
	buckets map[string]*bucket
	rps     float64
	burst   float64
}

func (lp *limiterPool) allow(tenant string, now time.Time) bool {
	lp.mu.Lock()
	b := lp.buckets[tenant]
	if b == nil {
		b = &bucket{tokens: lp.burst, last: now}
		lp.buckets[tenant] = b
	}
	lp.mu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	// A request stamped before the last refill (its time.Now() lost the race
	// to the lock) adds nothing rather than refilling backwards.
	if dt := now.Sub(b.last); dt > 0 {
		b.tokens = min(lp.burst, b.tokens+dt.Seconds()*lp.rps)
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// RateLimitBy enforces the per-tenant token bucket on every non-operational
// path: each tenant (as attributed by Auth; "anonymous" without keys) gets
// its own bucket of rl.Burst tokens refilled at rl.RPS per second, and a
// request finding the bucket empty is answered 429 with Retry-After — it
// never reaches the fleet. A zero rl disables the layer.
func RateLimitBy(rl RateLimit, retryAfter time.Duration, m *httpMetrics) Middleware {
	if rl.RPS <= 0 {
		return func(next http.Handler) http.Handler { return next }
	}
	lp := &limiterPool{
		buckets: make(map[string]*bucket),
		rps:     rl.RPS,
		burst:   float64(rl.Burst),
	}
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if operational[r.URL.Path] {
				next.ServeHTTP(w, r)
				return
			}
			if !lp.allow(TenantFrom(r.Context()), time.Now()) {
				m.rateLimited.Add(1)
				writeError(w, r, ErrRateLimited, retryAfter)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}
