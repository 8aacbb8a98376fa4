package httpd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tbnet/internal/fleet"
	"tbnet/internal/obs"
	"tbnet/internal/serial"
)

// maxBodyBytes bounds a swap request's artifact body: a few tens of MB for
// the zoo architectures. The inference endpoints have maxInferBodyBytes.
const maxBodyBytes = 256 << 20

// inferRequest is the body of POST /v1/infer.
type inferRequest struct {
	// Model names the hosted model to run; "" routes to the default model.
	Model string `json:"model,omitempty"`
	// Input is the flattened sample, row-major over Shape.
	Input []float64 `json:"input"`
	// Shape is the per-sample [C,H,W] shape; omitted, the model's deployed
	// sample shape is assumed.
	Shape []int `json:"shape,omitempty"`
}

// inferResponse is the answer of POST /v1/infer and each success line of the
// batch stream.
type inferResponse struct {
	// Label is the predicted class index.
	Label int `json:"label"`
	// Model echoes the model that served the sample.
	Model string `json:"model"`
	// Index is the sample's position in a batch request (batch stream only).
	Index int `json:"index,omitempty"`
	// RequestID echoes the request's ID.
	RequestID string `json:"request_id,omitempty"`
}

// batchRequest is the body of POST /v1/infer/batch.
type batchRequest struct {
	// Model names the hosted model to run; "" routes to the default model.
	Model string `json:"model,omitempty"`
	// Inputs holds one flattened sample per element.
	Inputs [][]float64 `json:"inputs"`
	// Shape is the per-sample [C,H,W] shape; omitted, the model's deployed
	// sample shape is assumed.
	Shape []int `json:"shape,omitempty"`
}

// batchLine is one NDJSON line of the batch stream: either a label or a
// per-sample error, tagged with the sample's index. Lines stream in
// completion order, not submission order.
type batchLine struct {
	// Index is the sample's position in the request.
	Index int `json:"index"`
	// Label is the predicted class (when Error is empty).
	Label int `json:"label,omitempty"`
	// Error carries the per-sample failure, if any.
	Error string `json:"error,omitempty"`
	// Status is the HTTP status the error would have mapped to standalone.
	Status int `json:"status,omitempty"`
}

// modelInfo is one hosted model in the GET /v1/models listing.
type modelInfo struct {
	// Name is the serving identity.
	Name string `json:"name"`
	// Default marks the fleet's default model (never reaped).
	Default bool `json:"default"`
	// Precision is the model's numeric serving path ("f32" or "int8").
	Precision string `json:"precision,omitempty"`
	// SampleShape is the [N,C,H,W] shape the pool was planned for.
	SampleShape []int `json:"sample_shape,omitempty"`
	// Requests is the fleet-wide served-sample count.
	Requests int64 `json:"requests"`
	// Swaps is the fleet-wide completed hot-swap count.
	Swaps int64 `json:"swaps"`
	// P99Micros is the fleet-wide modeled p99 latency in microseconds.
	P99Micros float64 `json:"p99_micros"`
}

// modelsResponse is the body of GET /v1/models.
type modelsResponse struct {
	// Default is the default model's name.
	Default string `json:"default"`
	// Models lists the live hosted pools.
	Models []modelInfo `json:"models"`
	// Registry lists the attached store's entries (absent without a store).
	Registry []registryEntry `json:"registry,omitempty"`
}

// registryEntry is one persisted artifact in the models listing.
type registryEntry struct {
	// Name is the registry identity (usable as ?from= in a swap).
	Name string `json:"name"`
	// Device is the backend the artifact was sized for.
	Device string `json:"device"`
	// Precision is the artifact's numeric serving path ("f32" or "int8";
	// manifests from before quantized serving read back as "f32").
	Precision string `json:"precision,omitempty"`
	// SampleShape is the planned [N,C,H,W] shape.
	SampleShape []int `json:"sample_shape"`
	// SizeBytes is the artifact size on disk.
	SizeBytes int64 `json:"size_bytes"`
}

// swapResponse is the body of a successful POST /v1/models/{name}/swap.
type swapResponse struct {
	// Model is the swapped model's serving identity.
	Model string `json:"model"`
	// Device is the backend the incoming deployment was sized for.
	Device string `json:"device"`
	// Swapped confirms the warm-then-drain swap completed fleet-wide.
	Swapped bool `json:"swapped"`
	// RequestID echoes the request's ID.
	RequestID string `json:"request_id,omitempty"`
}

// handleHealthz answers liveness probes: 200 while serving, 503 once
// Shutdown has begun so load balancers stop sending new traffic during the
// drain window.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, state := http.StatusOK, "ok"
	if s.draining.Load() {
		status, state = http.StatusServiceUnavailable, "draining"
	}
	writeJSON(w, status, map[string]any{
		"status":  state,
		"models":  len(s.cfg.Fleet.Models()),
		"devices": s.cfg.Fleet.Devices(),
	})
}

// sampleShape resolves a hosted model's deployed per-sample [C,H,W] shape.
func (s *Server) sampleShape(model string) ([]int, error) {
	ss, err := s.cfg.Fleet.SampleShape(model)
	if err == nil && len(ss) == 4 {
		ss = ss[1:]
	}
	return ss, err
}

// decodeRequest reads and decodes an inference body; the decoded tensors own
// their data, so the pooled body buffer is back before inference starts.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request, batch bool) (string, []sample, error) {
	buf, err := readBody(w, r)
	if err != nil {
		return "", nil, err
	}
	defer releaseBody(buf)
	return decodeSamples(buf.Bytes(), batch, s.sampleShape)
}

// resolveModel applies the default-model fallback.
func resolveModel(name string) string {
	if name == "" {
		return fleet.DefaultModel
	}
	return name
}

// handleInfer runs one sample through the fleet and answers with its label.
func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	model, samples, err := s.decodeRequest(w, r, false)
	if err == nil {
		err = samples[0].err
	}
	if err != nil {
		writeError(w, r, err, s.cfg.RetryAfter)
		return
	}
	label, err := s.cfg.Fleet.InferModel(r.Context(), model, samples[0].x)
	if err != nil {
		writeError(w, r, err, s.cfg.RetryAfter)
		return
	}
	s.reaper.touch(model)
	respondStart := time.Now()
	writeJSON(w, http.StatusOK, inferResponse{
		Label:     label,
		Model:     model,
		RequestID: RequestIDFrom(r.Context()),
	})
	obs.FromContext(r.Context()).Mark(obs.StageRespond, time.Since(respondStart))
}

// debugTraceResponse is the body of GET /debug/trace.
type debugTraceResponse struct {
	// Capacity is the span ring size — the bound on retained timelines.
	Capacity int `json:"capacity"`
	// Returned is len(Spans) after filtering and limiting.
	Returned int `json:"returned"`
	// Spans holds the matching finished spans, newest first.
	Spans []obs.SpanData `json:"spans"`
}

// handleDebugTrace serves the recent span timelines from the tracer ring,
// newest first: ?min_ms=N keeps only spans at least that slow (the workflow
// is scrape → spot a slow histogram bucket → fetch its exemplar's timeline
// here), ?limit=N caps the answer (default 256). 404s when the daemon runs
// without a tracer.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Tracer == nil {
		writeJSONError(w, r, http.StatusNotFound, "tracing disabled (no tracer configured)")
		return
	}
	var minWall time.Duration
	if q := r.URL.Query().Get("min_ms"); q != "" {
		ms, err := strconv.ParseFloat(q, 64)
		if err != nil || ms < 0 {
			writeJSONError(w, r, http.StatusBadRequest, "min_ms must be a non-negative number")
			return
		}
		minWall = time.Duration(ms * float64(time.Millisecond))
	}
	limit := 256
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n <= 0 {
			writeJSONError(w, r, http.StatusBadRequest, "limit must be a positive integer")
			return
		}
		limit = n
	}
	spans := s.cfg.Tracer.Snapshot(minWall, limit)
	writeJSON(w, http.StatusOK, debugTraceResponse{
		Capacity: s.cfg.Tracer.Capacity(),
		Returned: len(spans),
		Spans:    spans,
	})
}

// handleInferBatch fans a batch through the fleet concurrently and streams
// one NDJSON line per sample in completion order, flushing after every line
// so a slow sample does not hold back the fast ones. Per-sample failures are
// reported in-line (with the status they would have carried standalone); the
// stream itself is always 200 once the request parses.
func (s *Server) handleInferBatch(w http.ResponseWriter, r *http.Request) {
	model, samples, err := s.decodeRequest(w, r, true)
	if err != nil {
		writeError(w, r, err, s.cfg.RetryAfter)
		return
	}
	if len(samples) == 0 {
		writeJSONError(w, r, http.StatusBadRequest, "empty batch")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)

	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	var mu sync.Mutex
	served := false // under mu: at least one sample got a label
	emit := func(line batchLine) {
		mu.Lock()
		defer mu.Unlock()
		served = served || line.Error == ""
		_ = enc.Encode(line)
		if flusher != nil {
			flusher.Flush()
		}
	}

	// The batch fans out no wider than fleet admission: more of its samples
	// in flight than the cap would shed the batch's own tail with 503s on an
	// idle daemon. Each goroutine takes the next unstarted sample.
	width := len(samples)
	if c := s.cfg.Fleet.MaxInFlight(); c > 0 && c < width {
		width = c
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range width {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(samples) {
					return
				}
				label, err := 0, samples[i].err
				if err == nil {
					label, err = s.cfg.Fleet.InferModel(r.Context(), model, samples[i].x)
				}
				if err != nil {
					code, _ := statusFor(err)
					emit(batchLine{Index: i, Error: err.Error(), Status: code})
					continue
				}
				emit(batchLine{Index: i, Label: label})
			}
		}()
	}
	wg.Wait()
	// Only served traffic defers a model's expiry: the name is the client's,
	// and stamping one the fleet does not host would grow the reaper's map
	// by a request body's choice.
	if served {
		s.reaper.touch(model)
	}
}

// handleModels lists the hosted pools (with their fleet-wide counters and
// deployed sample shapes, so a remote client can synthesize valid inputs)
// and, when a registry is attached, the persisted artifacts available for
// swap-by-name.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	resp := modelsResponse{Default: fleet.DefaultModel}
	for _, ms := range s.cfg.Fleet.Stats().Models {
		info := modelInfo{
			Name:      ms.Name,
			Default:   ms.Name == fleet.DefaultModel,
			Precision: ms.Precision,
			Requests:  ms.Requests,
			Swaps:     ms.Swaps,
			P99Micros: ms.P99Micros,
		}
		if shape, err := s.cfg.Fleet.SampleShape(ms.Name); err == nil {
			info.SampleShape = shape
		}
		resp.Models = append(resp.Models, info)
	}
	if s.cfg.Registry != nil {
		entries, err := s.cfg.Registry.List()
		if err != nil {
			writeError(w, r, err, 0)
			return
		}
		for _, e := range entries {
			prec := e.Precision
			if prec == "" {
				prec = "f32"
			}
			resp.Registry = append(resp.Registry, registryEntry{
				Name:        e.Name,
				Device:      e.Device,
				Precision:   prec,
				SampleShape: e.SampleShape,
				SizeBytes:   e.SizeBytes,
			})
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSwap hot-swaps the named hosted model fleet-wide without dropping
// traffic: the incoming artifact — the raw request body, or a registry entry
// named with ?from= — is decoded, re-deployed for its recorded device
// (Artifact.Deploy; an unregistered device is the status table's 400), and
// handed to Fleet.SwapModel's warm-then-drain protocol. In-flight requests
// on the old weights finish; new requests see the new weights.
func (s *Server) handleSwap(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	art, err := s.swapArtifact(w, r)
	if err != nil {
		writeError(w, r, err, s.cfg.RetryAfter)
		return
	}
	dep, err := art.Deploy(nil)
	if err != nil {
		writeError(w, r, err, s.cfg.RetryAfter)
		return
	}
	if err := s.cfg.Fleet.SwapModel(name, dep); err != nil {
		writeError(w, r, err, s.cfg.RetryAfter)
		return
	}
	s.reaper.touch(name)
	writeJSON(w, http.StatusOK, swapResponse{
		Model:     name,
		Device:    art.Device,
		Swapped:   true,
		RequestID: RequestIDFrom(r.Context()),
	})
}

// swapArtifact resolves the swap request's artifact: the ?from= registry
// entry when named, the raw v2 artifact bytes in the body otherwise.
func (s *Server) swapArtifact(w http.ResponseWriter, r *http.Request) (*serial.Artifact, error) {
	if from := r.URL.Query().Get("from"); from != "" {
		if s.cfg.Registry == nil {
			return nil, fmt.Errorf("%w: ?from=%q but no registry attached", serial.ErrBadFormat, from)
		}
		art, _, err := s.cfg.Registry.Load(from)
		return art, err
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		return nil, fmt.Errorf("%w: reading artifact body: %v", serial.ErrBadFormat, err)
	}
	if len(body) == 0 {
		return nil, fmt.Errorf("%w: empty artifact body (POST the .tbd bytes or use ?from=<entry>)", serial.ErrBadFormat)
	}
	return serial.LoadDeployment(bytes.NewReader(body))
}
