package httpd

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"tbnet/internal/core"
	"tbnet/internal/fleet"
	"tbnet/internal/registry"
	"tbnet/internal/serial"
	"tbnet/internal/serve"
	"tbnet/internal/tee"
)

// TestStatusTable is the satellite's table-driven error→HTTP-status check:
// every sentinel the serving stack can surface maps onto its wire status,
// wrapped or bare, and transient conditions carry the Retry-After hint.
func TestStatusTable(t *testing.T) {
	cases := []struct {
		name       string
		err        error
		code       int
		retryAfter bool
	}{
		{"rate limited", ErrRateLimited, http.StatusTooManyRequests, true},
		{"draining", fleet.ErrDraining, http.StatusServiceUnavailable, true},
		{"overloaded", fleet.ErrOverloaded, http.StatusServiceUnavailable, true},
		{"closed", serve.ErrClosed, http.StatusServiceUnavailable, true},
		{"deadline", context.DeadlineExceeded, http.StatusGatewayTimeout, false},
		{"unknown model", serve.ErrUnknownModel, http.StatusNotFound, false},
		{"registry miss", registry.ErrNotFound, http.StatusNotFound, false},
		{"model exists", serve.ErrModelExists, http.StatusConflict, false},
		{"secure memory", core.ErrSecureMemory, http.StatusInsufficientStorage, false},
		{"bad shape", core.ErrShape, http.StatusBadRequest, false},
		{"bad artifact", serial.ErrBadFormat, http.StatusBadRequest, false},
		{"unknown device", tee.ErrUnknownDevice, http.StatusBadRequest, false},
		{"serve config", serve.ErrConfig, http.StatusBadRequest, false},
		{"fleet config", fleet.ErrConfig, http.StatusBadRequest, false},
		{"bad body", errBadBody, http.StatusBadRequest, false},
		{"body over its cap", &http.MaxBytesError{Limit: maxInferBodyBytes}, http.StatusRequestEntityTooLarge, false},
		{"body over its cap, as readBody wraps it", fmt.Errorf("%w: %w", errBadBody, &http.MaxBytesError{Limit: maxInferBodyBytes}), http.StatusRequestEntityTooLarge, false},
		{"unknown error", errors.New("mystery"), http.StatusInternalServerError, false},
		{"nil-ish wrap", fmt.Errorf("ctx: %w", errors.New("mystery")), http.StatusInternalServerError, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Bare sentinel.
			code, retry := statusFor(tc.err)
			if code != tc.code || retry != tc.retryAfter {
				t.Fatalf("statusFor(%v) = (%d, %v), want (%d, %v)",
					tc.err, code, retry, tc.code, tc.retryAfter)
			}
			// Wrapped with call-site context, the way the stack returns it.
			code, retry = statusFor(fmt.Errorf("fleet: serving: %w", tc.err))
			if code != tc.code || retry != tc.retryAfter {
				t.Fatalf("statusFor(wrapped %v) = (%d, %v), want (%d, %v)",
					tc.err, code, retry, tc.code, tc.retryAfter)
			}
		})
	}
}

// TestWriteErrorRetryAfter: transient statuses carry the ceil-seconds
// Retry-After header; permanent ones must not.
func TestWriteErrorRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		hint time.Duration
		want string
	}{
		{1500 * time.Millisecond, "2"},
		{time.Second, "1"},
		{500 * time.Microsecond, "1"},
		{time.Second + 100*time.Microsecond, "2"},
	} {
		w := httptest.NewRecorder()
		writeError(w, httptest.NewRequest(http.MethodPost, "/v1/infer", nil),
			fmt.Errorf("fleet: %w", fleet.ErrOverloaded), tc.hint)
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("code = %d, want 503", w.Code)
		}
		if ra := w.Header().Get("Retry-After"); ra != tc.want {
			t.Errorf("hint %v: Retry-After = %q, want %q (ceil seconds)", tc.hint, ra, tc.want)
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("content type = %q", ct)
		}
	}

	w := httptest.NewRecorder()
	writeError(w, httptest.NewRequest(http.MethodPost, "/v1/infer", nil),
		serve.ErrUnknownModel, time.Second)
	if w.Code != http.StatusNotFound {
		t.Fatalf("code = %d, want 404", w.Code)
	}
	if ra := w.Header().Get("Retry-After"); ra != "" {
		t.Fatalf("404 must not hint Retry-After, got %q", ra)
	}
}
