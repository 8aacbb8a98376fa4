package httpd

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"tbnet/internal/core"
	"tbnet/internal/fleet"
	"tbnet/internal/registry"
	"tbnet/internal/serial"
	"tbnet/internal/serve"
	"tbnet/internal/tee"
)

// statusRule is one row of the error→HTTP-status table: the sentinel the
// serving stack wraps, the status code clients see, and whether the answer
// should carry a Retry-After hint (transient conditions a well-behaved
// client backs off on).
type statusRule struct {
	err        error
	code       int
	retryAfter bool
}

// statusTable is the single place admission-control and serving errors map
// onto wire semantics. Order matters only where sentinels could wrap each
// other (they do not today); the first errors.Is match wins.
//
//	body over its cap   → 413 (*http.MaxBytesError is a type, not a sentinel,
//	                      so statusFor matches it ahead of the rows)
//	batch over its cap  → 413
//	rate limit          → 429 + Retry-After (per-tenant budget; back off)
//	draining            → 503 + Retry-After (terminal here; retry elsewhere)
//	overloaded          → 503 + Retry-After (fleet shed the request)
//	server closed       → 503 + Retry-After
//	deadline expired    → 504 (the fleet or caller deadline fired mid-serve)
//	unknown model       → 404 (hosted model or registry entry)
//	model exists        → 409
//	secure memory       → 507 (the device cannot hold the requested pool)
//	bad shape / input   → 400
//	bad artifact bytes  → 400
//	unknown device      → 400 (an artifact saved for a backend not registered here)
//	unparsable body     → 400
var statusTable = []statusRule{
	{errTooManySamples, http.StatusRequestEntityTooLarge, false},
	{ErrRateLimited, http.StatusTooManyRequests, true},
	{fleet.ErrDraining, http.StatusServiceUnavailable, true},
	{fleet.ErrOverloaded, http.StatusServiceUnavailable, true},
	{serve.ErrClosed, http.StatusServiceUnavailable, true},
	{context.DeadlineExceeded, http.StatusGatewayTimeout, false},
	{serve.ErrUnknownModel, http.StatusNotFound, false},
	{registry.ErrNotFound, http.StatusNotFound, false},
	{serve.ErrModelExists, http.StatusConflict, false},
	{core.ErrSecureMemory, http.StatusInsufficientStorage, false},
	{core.ErrShape, http.StatusBadRequest, false},
	{serial.ErrBadFormat, http.StatusBadRequest, false},
	{tee.ErrUnknownDevice, http.StatusBadRequest, false},
	{serve.ErrConfig, http.StatusBadRequest, false},
	{fleet.ErrConfig, http.StatusBadRequest, false},
	{errBadBody, http.StatusBadRequest, false},
}

// statusFor resolves err against the table; anything unrecognized is an
// internal error.
func statusFor(err error) (code int, retryAfter bool) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge, false
	}
	for _, rule := range statusTable {
		if errors.Is(err, rule.err) {
			return rule.code, rule.retryAfter
		}
	}
	return http.StatusInternalServerError, false
}

// errorBody is the JSON shape of every error answer.
type errorBody struct {
	// Error is the human-readable failure description.
	Error string `json:"error"`
	// RequestID echoes the request's ID so a client report can be joined
	// with the daemon's log.
	RequestID string `json:"request_id,omitempty"`
	// Status repeats the HTTP status code in the body for NDJSON consumers
	// that only see the line, not the headers.
	Status int `json:"status"`
}

// writeError maps err through the status table and answers with the JSON
// error body (plus Retry-After, when the table says the condition is
// transient).
func writeError(w http.ResponseWriter, r *http.Request, err error, retryAfter time.Duration) {
	code, hint := statusFor(err)
	if hint && retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt(int64((retryAfter+time.Second-1)/time.Second), 10))
	}
	writeJSONError(w, r, code, err.Error())
}

// writeJSONError answers with an explicit status and message.
func writeJSONError(w http.ResponseWriter, r *http.Request, code int, msg string) {
	writeJSON(w, code, errorBody{Error: msg, RequestID: RequestIDFrom(r.Context()), Status: code})
}

// writeJSON is the one JSON answer writer: status code, content type, body.
func writeJSON(w http.ResponseWriter, code int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(body)
}
