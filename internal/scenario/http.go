package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tbnet/internal/fleet"
	"tbnet/internal/serve"
	"tbnet/internal/tensor"
)

// HTTPTarget drives a remote tbnetd daemon through its real socket path: it
// implements Target by POSTing each sample to /v1/infer, so a phased
// workload exercises the daemon's full stack — HTTP parsing, the middleware
// chain, JSON marshalling, fleet routing — not just the in-process fleet.
// Overload answers (429/503) classify as shed, 504 as deadline expiry, and
// 404 as an unknown model, so Result's outcome split reads the same whether
// the target is a local Fleet or a daemon across the network.
type HTTPTarget struct {
	base   *url.URL
	client *http.Client
	apiKey string
}

// HTTPTargetOption configures an HTTPTarget.
type HTTPTargetOption func(*HTTPTarget)

// WithAPIKey attaches an API key (sent as X-API-Key) to every request, for
// daemons running with authentication enabled.
func WithAPIKey(key string) HTTPTargetOption {
	return func(t *HTTPTarget) { t.apiKey = key }
}

// NewHTTPTarget validates rawURL and returns a target addressing the tbnetd
// daemon at its base. The URL must be absolute with an http or https scheme
// and a host; anything else fails immediately with ErrSpec — a load test
// must refuse a bad target before any traffic is generated (and, in the CLI,
// before any model is built).
func NewHTTPTarget(rawURL string, opts ...HTTPTargetOption) (*HTTPTarget, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, fmt.Errorf("%w: target URL %q: %v", ErrSpec, rawURL, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("%w: target URL %q: scheme %q (want http or https)", ErrSpec, rawURL, u.Scheme)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("%w: target URL %q: missing host", ErrSpec, rawURL)
	}
	u.Path = strings.TrimSuffix(u.Path, "/")
	u.RawQuery, u.Fragment = "", ""
	t := &HTTPTarget{
		base:   u,
		client: &http.Client{Timeout: 30 * time.Second},
	}
	for _, opt := range opts {
		opt(t)
	}
	return t, nil
}

// endpoint resolves a daemon path against the target's base URL.
func (t *HTTPTarget) endpoint(path string) string {
	return t.base.String() + path
}

// appendInferBody appends the daemon's POST /v1/infer body for x to dst:
// {"model":…,"input":[…],"shape":[…]}, byte for byte what encoding/json makes
// of the same fields with the sample widened to []float64 — the model left
// out when empty, every value in the shortest form that reads back exactly,
// in e-notation below 1e-6 and from 1e21 — without that slice or reflection.
func appendInferBody(dst []byte, model string, x *tensor.Tensor) ([]byte, error) {
	shape := x.Shape()
	if len(shape) == 4 {
		shape = shape[1:]
	}
	dst = append(dst, '{')
	if model != "" {
		name, err := json.Marshal(model) // its escaping rules stay encoding/json's
		if err != nil {
			return nil, err
		}
		dst = append(append(append(dst, `"model":`...), name...), ',')
	}
	dst = append(dst, `"input":[`...)
	for i, v := range x.Data() {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("scenario: sample value %d is %v, which JSON cannot carry", i, v)
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		format := byte('f')
		if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
			format = 'e'
		}
		dst = strconv.AppendFloat(dst, f, format, -1, 64)
		// e-07 → e-7, as encoding/json writes it.
		if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	dst = append(dst, ']')
	if len(shape) > 0 {
		dst = append(dst, `,"shape":[`...)
		for i, d := range shape {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(d), 10)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

// bodyBuf is a pooled request-body buffer. The transport may still be
// reading a body after Do has returned, and re-reads it through GetBody when
// it retries on a stale connection, so the buffer goes back to the pool only
// once InferModel and every reader handed out have let go of it.
type bodyBuf struct {
	data []byte
	refs atomic.Int32
}

var bodyPool = sync.Pool{New: func() any { return new(bodyBuf) }}

func (b *bodyBuf) release() {
	if b.refs.Add(-1) == 0 {
		bodyPool.Put(b)
	}
}

// reader returns a fresh reader over the buffer that holds it until closed.
func (b *bodyBuf) reader() io.ReadCloser {
	b.refs.Add(1)
	return &bodyReader{Reader: bytes.NewReader(b.data), buf: b}
}

type bodyReader struct {
	*bytes.Reader
	buf    *bodyBuf
	closed atomic.Bool
}

func (r *bodyReader) Close() error {
	if r.closed.CompareAndSwap(false, true) {
		r.buf.release()
	}
	return nil
}

// wireLabel mirrors the daemon's inference answer.
type wireLabel struct {
	Label int `json:"label"`
}

// wireErr mirrors the daemon's JSON error body.
type wireErr struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// InferModel classifies one sample by POSTing it to the daemon's /v1/infer.
func (t *HTTPTarget) InferModel(ctx context.Context, model string, x *tensor.Tensor) (int, error) {
	body := bodyPool.Get().(*bodyBuf)
	body.refs.Store(1)
	defer body.release()
	data, err := appendInferBody(body.data[:0], model, x)
	if err != nil {
		return 0, err
	}
	body.data = data
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.endpoint("/v1/infer"), body.reader())
	if err != nil {
		return 0, err
	}
	req.ContentLength = int64(len(data))
	req.GetBody = func() (io.ReadCloser, error) { return body.reader(), nil }
	req.Header.Set("Content-Type", "application/json")
	if t.apiKey != "" {
		req.Header.Set("X-API-Key", t.apiKey)
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		var out wireLabel
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return 0, fmt.Errorf("scenario: decoding /v1/infer answer: %w", err)
		}
		return out.Label, nil
	}
	var we wireErr
	_ = json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&we)
	msg := we.Error
	if msg == "" {
		msg = resp.Status
	}
	// Map wire statuses back onto the serving stack's sentinels so the
	// harness's outcome classification is target-agnostic.
	switch resp.StatusCode {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return 0, fmt.Errorf("scenario: %s: %w", msg, fleet.ErrOverloaded)
	case http.StatusGatewayTimeout:
		return 0, fmt.Errorf("scenario: %s: %w", msg, context.DeadlineExceeded)
	case http.StatusNotFound:
		return 0, fmt.Errorf("scenario: %s: %w", msg, serve.ErrUnknownModel)
	default:
		return 0, fmt.Errorf("scenario: /v1/infer answered %d: %s", resp.StatusCode, msg)
	}
}

// RemoteModel is one hosted model as reported by the daemon's /v1/models.
type RemoteModel struct {
	// Name is the model's serving identity.
	Name string `json:"name"`
	// Default marks the daemon's default model.
	Default bool `json:"default"`
	// SampleShape is the [N,C,H,W] shape the pool was planned for — what a
	// client needs to synthesize valid load.
	SampleShape []int `json:"sample_shape"`
}

// Models asks the daemon which models it hosts (GET /v1/models), so a
// client-mode scenario can split traffic across them and size its synthetic
// samples without any local artifact.
func (t *HTTPTarget) Models(ctx context.Context) ([]RemoteModel, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.endpoint("/v1/models"), nil)
	if err != nil {
		return nil, err
	}
	if t.apiKey != "" {
		req.Header.Set("X-API-Key", t.apiKey)
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scenario: /v1/models answered %s", resp.Status)
	}
	var out struct {
		Models []RemoteModel `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("scenario: decoding /v1/models: %w", err)
	}
	if len(out.Models) == 0 {
		return nil, fmt.Errorf("scenario: daemon hosts no models")
	}
	return out.Models, nil
}
