package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"tbnet/internal/fleet"
	"tbnet/internal/serve"
	"tbnet/internal/tensor"
)

// TestNewHTTPTargetValidation: a load test must refuse a bad target URL
// immediately with ErrSpec — before any traffic or model build — and accept
// well-formed http/https bases.
func TestNewHTTPTargetValidation(t *testing.T) {
	bad := []string{
		"",
		"://nope",
		"ftp://host:21",
		"http://",
		"localhost:8080", // scheme-less: parses as scheme "localhost"
		"/just/a/path",
	}
	for _, raw := range bad {
		if _, err := NewHTTPTarget(raw); !errors.Is(err, ErrSpec) {
			t.Errorf("NewHTTPTarget(%q) err = %v, want ErrSpec", raw, err)
		}
	}
	good := []string{
		"http://127.0.0.1:8080",
		"https://edge.example.com",
		"http://host:9/", // trailing slash trimmed
	}
	for _, raw := range good {
		if _, err := NewHTTPTarget(raw); err != nil {
			t.Errorf("NewHTTPTarget(%q) err = %v, want nil", raw, err)
		}
	}
}

// TestHTTPTargetOutcomeMapping: wire statuses map back onto the serving
// sentinels, so the harness classifies shed/deadline/unknown identically for
// local fleets and remote daemons.
func TestHTTPTargetOutcomeMapping(t *testing.T) {
	var status int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if status == http.StatusOK {
			_ = json.NewEncoder(w).Encode(map[string]any{"label": 3})
			return
		}
		w.WriteHeader(status)
		_ = json.NewEncoder(w).Encode(map[string]any{"error": "synthetic", "status": status})
	}))
	defer srv.Close()
	tgt, err := NewHTTPTarget(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 3, 4, 4)

	status = http.StatusOK
	label, err := tgt.InferModel(context.Background(), "m", x)
	if err != nil || label != 3 {
		t.Fatalf("200: label %d err %v", label, err)
	}
	cases := []struct {
		status int
		want   error
	}{
		{http.StatusTooManyRequests, fleet.ErrOverloaded},
		{http.StatusServiceUnavailable, fleet.ErrOverloaded},
		{http.StatusGatewayTimeout, context.DeadlineExceeded},
		{http.StatusNotFound, serve.ErrUnknownModel},
	}
	for _, tc := range cases {
		status = tc.status
		if _, err := tgt.InferModel(context.Background(), "m", x); !errors.Is(err, tc.want) {
			t.Errorf("status %d: err = %v, want %v", tc.status, err, tc.want)
		}
	}
	status = http.StatusTeapot
	if _, err := tgt.InferModel(context.Background(), "m", x); err == nil {
		t.Error("unexpected status must error")
	}
}

// TestHTTPTargetModels: the models listing decodes and refuses an empty
// inventory.
func TestHTTPTargetModels(t *testing.T) {
	empty := false
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/models" {
			t.Errorf("path = %s", r.URL.Path)
		}
		models := []map[string]any{{"name": "default", "default": true, "sample_shape": []int{1, 3, 16, 16}}}
		if empty {
			models = nil
		}
		_ = json.NewEncoder(w).Encode(map[string]any{"default": "default", "models": models})
	}))
	defer srv.Close()
	tgt, err := NewHTTPTarget(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := tgt.Models(context.Background())
	if err != nil || len(ms) != 1 || ms[0].Name != "default" || !ms[0].Default {
		t.Fatalf("models = %+v, err %v", ms, err)
	}
	if len(ms[0].SampleShape) != 4 {
		t.Fatalf("sample shape = %v", ms[0].SampleShape)
	}
	empty = true
	if _, err := tgt.Models(context.Background()); err == nil {
		t.Fatal("empty inventory accepted")
	}
}

// TestInferBodyMatchesEncodingJSON locks the hand-built /v1/infer body to
// the bytes encoding/json makes of the same request — over seeded samples
// and the values where its float format changes: signed zero, both sides of
// the e-notation switch-overs (below 1e-6, from 1e21), one- and two-digit
// exponents, float32's extremes — with the model present, absent, and in
// need of escaping.
func TestInferBodyMatchesEncodingJSON(t *testing.T) {
	type wireInfer struct {
		Model string    `json:"model,omitempty"`
		Input []float64 `json:"input"`
		Shape []int     `json:"shape,omitempty"`
	}
	edges := []float32{
		0, float32(math.Copysign(0, -1)), 1, -1, 0.1, 16777216, 3.5e-5,
		1e-6, math.Nextafter32(1e-6, 0), math.Nextafter32(1e-6, 1), 1e-7, -1e-7, 1e-10, 1e-38,
		1e21, math.Nextafter32(1e21, 0), math.Nextafter32(1e21, math.MaxFloat32), -1e21, 1e20, 1e22, 1e30,
		math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32,
	}
	samples := []*tensor.Tensor{
		tensor.FromData(edges, 1, 1, 4, 6),
		tensor.FromData(edges, 2, 12),
		tensor.New(1, 3, 0, 4),
	}
	rng := tensor.NewRNG(41)
	for _, std := range []float64{1, 1e-6, 1e21} {
		x := tensor.New(1, 3, 16, 16)
		rng.FillNormal(x, 0, std)
		samples = append(samples, x)
	}
	var got []byte // reused across bodies, as InferModel's pooled buffer is
	for _, x := range samples {
		for _, model := range []string{"", "canary", `a"b\c<d>&é` + "\x01\xff"} {
			shape := x.Shape()
			if len(shape) == 4 {
				shape = shape[1:]
			}
			input := make([]float64, 0, x.Size())
			for _, v := range x.Data() {
				input = append(input, float64(v))
			}
			want, err := json.Marshal(wireInfer{Model: model, Input: input, Shape: shape})
			if err != nil {
				t.Fatal(err)
			}
			if got, err = appendInferBody(got[:0], model, x); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("model %q shape %v:\n got %s\nwant %s", model, x.Shape(), got, want)
			}
		}
	}
	for _, v := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		x := tensor.FromData([]float32{1, v}, 1, 1, 1, 2)
		if _, err := appendInferBody(nil, "", x); err == nil {
			t.Errorf("value %v: want an error, as encoding/json gives", v)
		}
	}
}

// TestHTTPTargetConcurrentBodies: concurrent callers share the pooled body
// buffers, and a server that answers before reading its request leaves the
// transport still reading one after InferModel has returned. Every body that
// is read must still be the one its caller built: all values equal, and the
// answer derived from them is the caller's own.
func TestHTTPTargetConcurrentBodies(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-API-Key") == "early" {
			w.WriteHeader(http.StatusNotFound) // answered with the body unread
			return
		}
		var req struct {
			Input []float64 `json:"input"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || len(req.Input) != 3*16*16 {
			http.Error(w, "mangled body", http.StatusInternalServerError)
			return
		}
		for _, v := range req.Input {
			if v != req.Input[0] {
				http.Error(w, "body mixes two requests", http.StatusInternalServerError)
				return
			}
		}
		_ = json.NewEncoder(w).Encode(map[string]any{"label": int(req.Input[0])})
	}))
	defer srv.Close()
	reads, err := NewHTTPTarget(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	early, err := NewHTTPTarget(srv.URL, WithAPIKey("early"))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			x := tensor.New(1, 3, 16, 16)
			for i := 0; i < 40; i++ {
				want := g*1000 + i
				x.Fill(float32(want))
				if g%2 == 1 && i%4 == 0 {
					if _, err := early.InferModel(context.Background(), "", x); !errors.Is(err, serve.ErrUnknownModel) {
						t.Errorf("early answer: err = %v", err)
					}
					continue
				}
				if label, err := reads.InferModel(context.Background(), "", x); err != nil || label != want {
					t.Errorf("caller %d request %d: label %d err %v", g, i, label, err)
				}
			}
		}(g)
	}
	wg.Wait()
}
