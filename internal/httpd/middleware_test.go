package httpd

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
}

// TestAuthRejectsAndAttributes: without a key 401, with a known key the
// tenant is attributed (both header forms), exempt paths pass keyless, and
// an empty key table disables the layer entirely.
func TestAuthRejectsAndAttributes(t *testing.T) {
	keys := map[string]string{"k-alpha": "alpha", "k-beta": "beta"}
	var gotTenant string
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotTenant = TenantFrom(r.Context())
	})
	h := Chain(inner, Auth(keys))

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/models", nil))
	if w.Code != http.StatusUnauthorized {
		t.Fatalf("keyless = %d, want 401", w.Code)
	}
	var eb errorBody
	if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || eb.Status != http.StatusUnauthorized {
		t.Fatalf("401 body = %s (%v)", w.Body, err)
	}

	r := httptest.NewRequest(http.MethodGet, "/v1/models", nil)
	r.Header.Set("X-API-Key", "k-alpha")
	w = httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusOK || gotTenant != "alpha" {
		t.Fatalf("X-API-Key: code %d tenant %q", w.Code, gotTenant)
	}

	r = httptest.NewRequest(http.MethodGet, "/v1/models", nil)
	r.Header.Set("Authorization", "Bearer k-beta")
	w = httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusOK || gotTenant != "beta" {
		t.Fatalf("Bearer: code %d tenant %q", w.Code, gotTenant)
	}

	r = httptest.NewRequest(http.MethodGet, "/v1/models", nil)
	r.Header.Set("X-API-Key", "wrong")
	w = httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusUnauthorized {
		t.Fatalf("wrong key = %d, want 401", w.Code)
	}

	gotTenant = "unset"
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusOK || gotTenant != "anonymous" {
		t.Fatalf("exempt: code %d tenant %q", w.Code, gotTenant)
	}

	open := Chain(inner, Auth(nil))
	w = httptest.NewRecorder()
	open.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/models", nil))
	if w.Code != http.StatusOK || gotTenant != "anonymous" {
		t.Fatalf("auth disabled: code %d tenant %q", w.Code, gotTenant)
	}
}

// TestRateLimitTenantIsolation: each tenant owns its bucket — one tenant
// burning its burst cannot starve another — and refusals carry 429 with a
// Retry-After hint and count on the metrics.
func TestRateLimitTenantIsolation(t *testing.T) {
	keys := map[string]string{"k-a": "a", "k-b": "b"}
	m := newHTTPMetrics()
	// RPS low enough that no token refills during the test.
	h := Chain(okHandler(),
		Auth(keys),
		RateLimitBy(RateLimit{RPS: 0.0001, Burst: 2}, 7*time.Second, m),
	)
	do := func(key string) *httptest.ResponseRecorder {
		r := httptest.NewRequest(http.MethodPost, "/v1/infer", nil)
		r.Header.Set("X-API-Key", key)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		return w
	}
	for i := 0; i < 2; i++ {
		if w := do("k-a"); w.Code != http.StatusOK {
			t.Fatalf("tenant a request %d = %d, want 200", i, w.Code)
		}
	}
	w := do("k-a")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("tenant a over budget = %d, want 429", w.Code)
	}
	if ra := w.Header().Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After = %q, want \"7\"", ra)
	}
	// Tenant b's bucket is untouched by a's exhaustion.
	for i := 0; i < 2; i++ {
		if w := do("k-b"); w.Code != http.StatusOK {
			t.Fatalf("tenant b request %d = %d, want 200 (buckets must not share tokens)", i, w.Code)
		}
	}
	if got := m.rateLimited.Load(); got != 1 {
		t.Fatalf("rateLimited counter = %d, want 1", got)
	}
	// Zero policy disables the layer.
	open := Chain(okHandler(), RateLimitBy(RateLimit{}, time.Second, m))
	for i := 0; i < 10; i++ {
		w := httptest.NewRecorder()
		open.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/infer", nil))
		if w.Code != http.StatusOK {
			t.Fatalf("unlimited request %d = %d", i, w.Code)
		}
	}
}

// TestRateLimitOutOfOrderClock: two requests whose time.Now() and lock order
// disagree reach the bucket with a timestamp earlier than its last refill.
// That must not drain tokens: the later-stamped request already refilled
// past it.
func TestRateLimitOutOfOrderClock(t *testing.T) {
	lp := &limiterPool{buckets: make(map[string]*bucket), rps: 100, burst: 2}
	t0 := time.Unix(1000, 0)
	for i, at := range []time.Duration{0, 10 * time.Millisecond, 5 * time.Millisecond} {
		if !lp.allow("a", t0.Add(at)) {
			t.Fatalf("request %d at +%v refused; %.2f tokens left", i, at, lp.buckets["a"].tokens)
		}
	}
}

// TestRequestIDPropagation: the assigned ID reaches the response header, the
// handler's context, and the structured log line; a client-sent ID is
// honoured end to end.
func TestRequestIDPropagation(t *testing.T) {
	var logBuf bytes.Buffer
	log := slog.New(slog.NewTextHandler(&logBuf, nil))
	var ctxID string
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctxID = RequestIDFrom(r.Context())
	})
	h := Chain(inner, RequestID(), Logging(log, newHTTPMetrics(), 0))

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/models", nil))
	id := w.Header().Get(requestIDHeader)
	if id == "" {
		t.Fatal("no X-Request-Id on response")
	}
	if ctxID != id {
		t.Fatalf("context ID %q != header ID %q", ctxID, id)
	}
	if !strings.Contains(logBuf.String(), "request_id="+id) {
		t.Fatalf("log line lacks request_id=%s: %s", id, logBuf.String())
	}

	logBuf.Reset()
	r := httptest.NewRequest(http.MethodGet, "/v1/models", nil)
	r.Header.Set(requestIDHeader, "client-chosen-42")
	w = httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if got := w.Header().Get(requestIDHeader); got != "client-chosen-42" {
		t.Fatalf("client ID not honoured: %q", got)
	}
	if !strings.Contains(logBuf.String(), "request_id=client-chosen-42") {
		t.Fatalf("log line lacks client ID: %s", logBuf.String())
	}

	// An oversized client ID is replaced, not trusted.
	r = httptest.NewRequest(http.MethodGet, "/v1/models", nil)
	r.Header.Set(requestIDHeader, strings.Repeat("x", 300))
	w = httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if got := w.Header().Get(requestIDHeader); len(got) > 128 || got == "" {
		t.Fatalf("oversized client ID handled badly: %q", got)
	}
}

// TestRecoverPanic: a panicking handler answers 500 and the server keeps
// serving; the panic counter and status counters both record it.
func TestRecoverPanic(t *testing.T) {
	m := newHTTPMetrics()
	log := slog.New(slog.NewTextHandler(&bytes.Buffer{}, nil))
	calls := 0
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls == 1 {
			panic("boom")
		}
		w.WriteHeader(http.StatusOK)
	})
	srv := httptest.NewServer(Chain(inner, Recover(log, m), RequestID()))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/models")
	if err != nil {
		t.Fatalf("panicking request must still answer: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panic = %d, want 500", resp.StatusCode)
	}
	if m.panics.Load() != 1 {
		t.Fatalf("panics counter = %d, want 1", m.panics.Load())
	}
	// The server survived: the next request answers normally.
	resp, err = http.Get(srv.URL + "/v1/models")
	if err != nil {
		t.Fatalf("server died after panic: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic request = %d, want 200", resp.StatusCode)
	}
}

// TestChainOrder: middlewares wrap first-argument-outermost, so the request
// traverses them in argument order.
func TestChainOrder(t *testing.T) {
	var order []string
	tag := func(name string) Middleware {
		return func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				order = append(order, name)
				next.ServeHTTP(w, r)
			})
		}
	}
	h := Chain(okHandler(), tag("outer"), tag("mid"), tag("inner"))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
	if got := strings.Join(order, ","); got != "outer,mid,inner" {
		t.Fatalf("traversal order = %s", got)
	}
}

// TestAccessLogLineUnchanged: the access line written through LogAttrs with
// typed attributes is byte for byte the line the boxed key/value form
// writes for the same request. Only the clock is pinned (the time is
// dropped and duration_ms fixed) so the two lines can be compared.
func TestAccessLogLineUnchanged(t *testing.T) {
	pin := func(_ []string, a slog.Attr) slog.Attr {
		switch a.Key {
		case slog.TimeKey:
			return slog.Attr{}
		case "duration_ms":
			return slog.Float64(a.Key, 1.25)
		}
		return a
	}
	var got, want bytes.Buffer
	log := slog.New(slog.NewTextHandler(&got, &slog.HandlerOptions{ReplaceAttr: pin}))
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
		w.Write([]byte("short and stout"))
	})
	h := Chain(inner, RequestID(), Logging(log, newHTTPMetrics(), 0))
	r := httptest.NewRequest(http.MethodPost, "/v1/infer", nil)
	r.Header.Set(requestIDHeader, "id-7")
	h.ServeHTTP(httptest.NewRecorder(), r)

	ref := slog.New(slog.NewTextHandler(&want, &slog.HandlerOptions{ReplaceAttr: pin}))
	ref.Info("request",
		"request_id", "id-7",
		"tenant", "anonymous",
		"method", http.MethodPost,
		"path", "/v1/infer",
		"status", http.StatusTeapot,
		"bytes", int64(len("short and stout")),
		"duration_ms", 0.0,
	)
	if got.String() != want.String() {
		t.Fatalf("access line\n got %q\nwant %q", got.String(), want.String())
	}
}
