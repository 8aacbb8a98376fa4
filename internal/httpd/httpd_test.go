package httpd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tbnet/internal/core"
	"tbnet/internal/fleet"
	"tbnet/internal/registry"
	"tbnet/internal/serial"
	"tbnet/internal/serve"
	"tbnet/internal/tee"
	"tbnet/internal/tensor"
	"tbnet/internal/zoo"
)

// testDeployment builds a deployed tiny finalized two-branch model without
// the training pipeline; daemon behaviour does not depend on learned weights.
func testDeployment(t testing.TB, seed uint64) *core.Deployment {
	t.Helper()
	dep, err := core.Deploy(testTwoBranch(seed), tee.RaspberryPi3(), []int{1, 3, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

func testTwoBranch(seed uint64) *core.TwoBranch {
	victim := zoo.BuildVGG(zoo.TinyVGGConfig(4), tensor.NewRNG(seed))
	tb := core.NewTwoBranch(victim, seed+1)
	tb.Finalized = true
	return tb
}

// testFleet starts a one-node fleet over a fresh deployment, plus any extra
// named models.
func testFleet(t testing.TB, mut func(*fleet.Config)) *fleet.Fleet {
	t.Helper()
	cfg := fleet.Config{
		Nodes:    []fleet.NodeConfig{{Device: tee.RaspberryPi3(), Workers: 1}},
		MaxDelay: time.Millisecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	f, err := fleet.New(testDeployment(t, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// testServer assembles a daemon over testFleet with a quiet logger.
func testServer(t testing.TB, mutFleet func(*fleet.Config), mutCfg func(*Config)) (*Server, *fleet.Fleet) {
	t.Helper()
	f := testFleet(t, mutFleet)
	cfg := Config{
		Fleet:  f,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	if mutCfg != nil {
		mutCfg(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, f
}

func randSample(seed uint64) *tensor.Tensor {
	x := tensor.New(1, 3, 16, 16)
	tensor.NewRNG(seed).FillNormal(x, 0, 1)
	return x
}

// inferBody marshals a /v1/infer request for x.
func inferBody(t testing.TB, model string, x *tensor.Tensor) []byte {
	t.Helper()
	data := x.Data()
	input := make([]float64, len(data))
	for i, v := range data {
		input[i] = float64(v)
	}
	body, err := json.Marshal(map[string]any{"model": model, "input": input})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func postJSON(t testing.TB, h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func getPath(t testing.TB, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

// TestHealthzAndModels: the probe answers ok with the hosted inventory, and
// the models listing carries the deployed sample shape a remote client needs.
func TestHealthzAndModels(t *testing.T) {
	s, _ := testServer(t, nil, nil)
	w := getPath(t, s.Handler(), "/healthz")
	if w.Code != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", w.Code)
	}
	var hz struct {
		Status  string `json:"status"`
		Models  int    `json:"models"`
		Devices int    `json:"devices"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.Models != 1 || hz.Devices != 1 {
		t.Fatalf("healthz = %+v", hz)
	}

	w = getPath(t, s.Handler(), "/v1/models")
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/models = %d, want 200: %s", w.Code, w.Body)
	}
	var ms modelsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &ms); err != nil {
		t.Fatal(err)
	}
	if ms.Default != fleet.DefaultModel || len(ms.Models) != 1 {
		t.Fatalf("models = %+v", ms)
	}
	if got, want := fmt.Sprint(ms.Models[0].SampleShape), fmt.Sprint([]int{1, 3, 16, 16}); got != want {
		t.Fatalf("sample shape = %s, want %s", got, want)
	}
	if !ms.Models[0].Default {
		t.Fatal("default model not flagged")
	}
}

// TestInferMatchesDirect: the HTTP answer is the same label direct inference
// on the template deployment produces.
func TestInferMatchesDirect(t *testing.T) {
	s, _ := testServer(t, nil, nil)
	ref := testDeployment(t, 1)
	for i := 0; i < 4; i++ {
		x := randSample(uint64(100 + i))
		labels, err := ref.Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		w := postJSON(t, s.Handler(), "/v1/infer", inferBody(t, "", x))
		if w.Code != http.StatusOK {
			t.Fatalf("infer = %d: %s", w.Code, w.Body)
		}
		var out inferResponse
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		if out.Label != labels[0] {
			t.Fatalf("sample %d: HTTP label %d != direct %d", i, out.Label, labels[0])
		}
		if out.Model != fleet.DefaultModel {
			t.Fatalf("answer model = %q", out.Model)
		}
		if w.Header().Get(requestIDHeader) == "" {
			t.Fatal("no request ID on answer")
		}
	}
}

// TestInferBatchNDJSON: the batch endpoint streams one labeled NDJSON line
// per sample, every index accounted for, labels matching direct inference.
func TestInferBatchNDJSON(t *testing.T) {
	s, _ := testServer(t, nil, nil)
	ref := testDeployment(t, 1)
	const n = 6
	inputs := make([][]float64, n)
	want := make([]int, n)
	for i := range inputs {
		x := randSample(uint64(200 + i))
		labels, err := ref.Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = labels[0]
		data := x.Data()
		inputs[i] = make([]float64, len(data))
		for j, v := range data {
			inputs[i][j] = float64(v)
		}
	}
	body, _ := json.Marshal(map[string]any{"inputs": inputs})
	w := postJSON(t, s.Handler(), "/v1/infer/batch", body)
	if w.Code != http.StatusOK {
		t.Fatalf("batch = %d: %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	seen := make(map[int]int)
	for _, line := range strings.Split(strings.TrimSpace(w.Body.String()), "\n") {
		var bl batchLine
		if err := json.Unmarshal([]byte(line), &bl); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if bl.Error != "" {
			t.Fatalf("sample %d failed: %s", bl.Index, bl.Error)
		}
		seen[bl.Index] = bl.Label
	}
	if len(seen) != n {
		t.Fatalf("saw %d distinct indices, want %d", len(seen), n)
	}
	for i, label := range want {
		if seen[i] != label {
			t.Fatalf("sample %d: streamed label %d != direct %d", i, seen[i], label)
		}
	}
}

// holdTap holds the first protocol run it sees until release is closed and
// lets every other run through. A tap fires before the run's callers are
// answered, so the held run's sample stays unanswered.
type holdTap struct {
	held    atomic.Bool
	release chan struct{}
}

func (h *holdTap) TapRun(string, tee.Device, string, int, []tee.Event) float64 {
	if h.held.CompareAndSwap(false, true) {
		<-h.release
	}
	return 0
}

// TestInferBatchStreamsPastAHeldSample: over a real socket, every line of a
// batch reaches the client while one of its samples is still held in the
// fleet; only that sample's line waits for it.
func TestInferBatchStreamsPastAHeldSample(t *testing.T) {
	tap := &holdTap{release: make(chan struct{})}
	s, _ := testServer(t, func(c *fleet.Config) {
		c.Nodes[0].Workers = 2 // one holds the sample, one serves the rest
		c.MaxBatch = 1
		c.Tap = tap
	}, nil)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	var once sync.Once
	release := func() { once.Do(func() { close(tap.release) }) }
	t.Cleanup(release) // ahead of srv.Close, which waits for the handler

	const n = 8
	inputs := make([][]float64, n)
	for i := range inputs {
		for _, v := range randSample(uint64(300 + i)).Data() {
			inputs[i] = append(inputs[i], float64(v))
		}
	}
	body, _ := json.Marshal(map[string]any{"inputs": inputs})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/infer/batch", bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch = %d", resp.StatusCode)
	}
	lines := bufio.NewReader(resp.Body)
	seen := make(map[int]bool)
	readLine := func() {
		t.Helper()
		line, err := lines.ReadBytes('\n')
		if err != nil {
			t.Fatalf("after %d lines, with a sample held %v: %v", len(seen), tap.held.Load(), err)
		}
		var bl batchLine
		if err := json.Unmarshal(line, &bl); err != nil || bl.Error != "" || seen[bl.Index] {
			t.Fatalf("line %q: %v", line, err)
		}
		seen[bl.Index] = true
	}
	for len(seen) < n-1 {
		readLine()
	}
	if !tap.held.Load() {
		t.Fatal("no sample was held")
	}
	release()
	readLine()
	if rest, err := io.ReadAll(lines); err != nil || len(rest) != 0 {
		t.Fatalf("after the last line: %q, %v", rest, err)
	}
}

// TestInferBatchStreamsPastAHeldChunk is the same property at chunk grain:
// at MaxBatch 2 the batch runs as four two-sample chunks, and while one of
// them is held in the fleet the other three chunks' lines all reach the
// client; only the held chunk's two lines wait for it.
func TestInferBatchStreamsPastAHeldChunk(t *testing.T) {
	tap := &holdTap{release: make(chan struct{})}
	s, _ := testServer(t, func(c *fleet.Config) {
		c.Nodes[0].Workers = 2 // one holds a chunk, one serves the rest
		c.MaxBatch = 2
		c.Tap = tap
	}, nil)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	var once sync.Once
	release := func() { once.Do(func() { close(tap.release) }) }
	t.Cleanup(release) // ahead of srv.Close, which waits for the handler

	const n, held = 8, 2
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/infer/batch",
		bytes.NewReader(benchBody(t, "", n, 3, 16, 16)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch = %d", resp.StatusCode)
	}
	lines := bufio.NewReader(resp.Body)
	seen := make(map[int]bool)
	readLine := func() {
		t.Helper()
		line, err := lines.ReadBytes('\n')
		if err != nil {
			t.Fatalf("after %d lines, with a chunk held %v: %v", len(seen), tap.held.Load(), err)
		}
		var bl batchLine
		if err := json.Unmarshal(line, &bl); err != nil || bl.Error != "" || seen[bl.Index] {
			t.Fatalf("line %q: %v", line, err)
		}
		seen[bl.Index] = true
	}
	for len(seen) < n-held {
		readLine()
	}
	if !tap.held.Load() {
		t.Fatal("no chunk was held")
	}
	release()
	for len(seen) < n {
		readLine()
	}
	if rest, err := io.ReadAll(lines); err != nil || len(rest) != 0 {
		t.Fatalf("after the last line: %q, %v", rest, err)
	}
}

// TestInferBatchRunsOnePerChunk: on a one-node, one-worker,
// work-conserving fleet at MaxBatch 8, a 16-sample batch reaches the worker
// as two chunks of eight — exactly two protocol runs, which one fleet call
// per sample reaches only when arrivals happen to coalesce — answers every
// sample as a direct Infer does, and leaves the fleet's per-sample counters
// conserved.
func TestInferBatchRunsOnePerChunk(t *testing.T) {
	s, f := testServer(t, func(c *fleet.Config) { c.MaxBatch, c.MaxDelay = 8, 0 }, nil)
	ref := testDeployment(t, 1)
	const n = 16
	inputs := make([][]float64, n)
	want := make([]int, n)
	for i := range inputs {
		x := randSample(uint64(400 + i))
		labels, err := ref.Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = labels[0]
		for _, v := range x.Data() {
			inputs[i] = append(inputs[i], float64(v))
		}
	}
	body, _ := json.Marshal(map[string]any{"inputs": inputs})
	w := postJSON(t, s.Handler(), "/v1/infer/batch", body)
	if w.Code != http.StatusOK {
		t.Fatalf("batch = %d: %s", w.Code, w.Body)
	}
	got := make(map[int]int)
	for _, line := range strings.Split(strings.TrimSpace(w.Body.String()), "\n") {
		var bl batchLine
		if err := json.Unmarshal([]byte(line), &bl); err != nil || bl.Error != "" {
			t.Fatalf("line %q: %v", line, err)
		}
		got[bl.Index] = bl.Label
	}
	if len(got) != n {
		t.Fatalf("%d distinct indices, want %d", len(got), n)
	}
	for i, label := range want {
		if got[i] != label {
			t.Errorf("sample %d: label %d, direct Infer %d", i, got[i], label)
		}
	}
	st := f.Stats()
	if node := st.PerDevice[0].Serve; node.Batches != 2 || node.MeanBatch != 8 {
		t.Errorf("node ran %d batches, mean %.2f; want 2 of 8", node.Batches, node.MeanBatch)
	}
	if st.Requests != n || st.Shed != 0 || st.Errors != 0 || st.InFlight != 0 {
		t.Errorf("fleet counts %d served, %d shed, %d failed, %d in flight; want %d/0/0/0",
			st.Requests, st.Shed, st.Errors, st.InFlight, n)
	}
}

// TestInferBadRequests: malformed bodies, wrong shapes, and unknown models
// map onto 400/404 with the JSON error body.
func TestInferBadRequests(t *testing.T) {
	s, _ := testServer(t, nil, nil)
	h := s.Handler()

	w := postJSON(t, h, "/v1/infer", []byte("{not json"))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad JSON = %d, want 400", w.Code)
	}
	w = postJSON(t, h, "/v1/infer", []byte(`{"input":[1,2,3]}`))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("wrong-size input = %d, want 400", w.Code)
	}
	w = postJSON(t, h, "/v1/infer", inferBody(t, "nope", randSample(1)))
	if w.Code != http.StatusNotFound {
		t.Fatalf("unknown model = %d, want 404", w.Code)
	}
	var eb errorBody
	if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Status != http.StatusNotFound || eb.Error == "" || eb.RequestID == "" {
		t.Fatalf("error body = %+v", eb)
	}
	w = postJSON(t, h, "/v1/infer/batch", []byte(`{"inputs":[]}`))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("empty batch = %d, want 400", w.Code)
	}
}

// TestSwapOverHTTP: POSTing a serialized artifact hot-swaps the hosted model
// and the post-swap answers are bit-identical to direct inference on an
// identically-deployed copy of the incoming model — at either precision,
// whether the artifact arrives in the body or is named in the registry.
func TestSwapOverHTTP(t *testing.T) {
	store, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, f := testServer(t, nil, func(c *Config) { c.Registry = store })
	h := s.Handler()
	shape := []int{1, 3, 16, 16}
	swapPath := "/v1/models/" + fleet.DefaultModel + "/swap"

	// expectServing checks the daemon now answers exactly like ref and
	// exports the model at the given weight width.
	expectServing := func(ref *core.Deployment, bits string) {
		t.Helper()
		for i := 0; i < 4; i++ {
			x := randSample(uint64(300 + i))
			labels, err := ref.Infer(x)
			if err != nil {
				t.Fatal(err)
			}
			w := postJSON(t, h, "/v1/infer", inferBody(t, "", x))
			if w.Code != http.StatusOK {
				t.Fatalf("post-swap infer = %d: %s", w.Code, w.Body)
			}
			var out inferResponse
			if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
				t.Fatal(err)
			}
			if out.Label != labels[0] {
				t.Fatalf("post-swap sample %d: HTTP label %d != incoming model's %d",
					i, out.Label, labels[0])
			}
		}
		want := fmt.Sprintf("tbnet_model_precision{model=%q,precision=%q} %s",
			fleet.DefaultModel, ref.Precision(), bits)
		if body := getPath(t, h, "/metrics").Body.String(); !strings.Contains(body, want) {
			t.Fatalf("/metrics lacks %q after the swap", want)
		}
	}

	var f32Art bytes.Buffer
	if err := serial.SaveDeployment(&f32Art, &serial.Artifact{
		TB: testTwoBranch(99), Device: "rpi3", SampleShape: shape,
	}); err != nil {
		t.Fatal(err)
	}
	ref2, err := core.Deploy(testTwoBranch(99), tee.RaspberryPi3(), shape)
	if err != nil {
		t.Fatal(err)
	}
	w := postJSON(t, h, swapPath, f32Art.Bytes())
	if w.Code != http.StatusOK {
		t.Fatalf("swap = %d: %s", w.Code, w.Body)
	}
	var sr swapResponse
	if err := json.Unmarshal(w.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Swapped || sr.Device != "rpi3" {
		t.Fatalf("swap answer = %+v", sr)
	}
	if got := f.Stats().Models[0].Swaps; got != 1 {
		t.Fatalf("fleet swap counter = %d, want 1", got)
	}
	expectServing(ref2, "32")

	// The int8 legs: the same model /v1/models advertises as "int8" must be
	// swappable, from the body and by registry name.
	refQ, err := core.DeployInt8(testTwoBranch(55), tee.RaspberryPi3(), shape)
	if err != nil {
		t.Fatal(err)
	}
	int8Art := &serial.Artifact{TB: refQ.Snapshot(), Device: "rpi3", SampleShape: shape}
	var int8Body bytes.Buffer
	if err := serial.SaveDeployment(&int8Body, int8Art); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Save("quantized", int8Art); err != nil {
		t.Fatal(err)
	}
	if w := postJSON(t, h, swapPath, int8Body.Bytes()); w.Code != http.StatusOK {
		t.Fatalf("int8 body swap = %d: %s", w.Code, w.Body)
	}
	expectServing(refQ, "8")
	if w := postJSON(t, h, swapPath, f32Art.Bytes()); w.Code != http.StatusOK {
		t.Fatalf("swap back to f32 = %d: %s", w.Code, w.Body)
	}
	expectServing(ref2, "32")
	if w := postJSON(t, h, swapPath+"?from=quantized", nil); w.Code != http.StatusOK {
		t.Fatalf("int8 ?from= swap = %d: %s", w.Code, w.Body)
	}
	expectServing(refQ, "8")

	// Swapping an unknown name is 404; an empty body is 400.
	if w := postJSON(t, h, "/v1/models/nope/swap", f32Art.Bytes()); w.Code != http.StatusNotFound {
		t.Fatalf("swap unknown = %d, want 404", w.Code)
	}
	if w := postJSON(t, h, swapPath, nil); w.Code != http.StatusBadRequest {
		t.Fatalf("swap empty body = %d, want 400", w.Code)
	}
}

// TestSwapRejectsZeroStrideDepthwise: a checksum-valid artifact whose
// depthwise stride is 0 is a malformed body, answered 400 before anything is
// deployed, and the hosted model keeps serving.
func TestSwapRejectsZeroStrideDepthwise(t *testing.T) {
	s, f := testServer(t, nil, nil)
	h := s.Handler()
	tb := core.NewTwoBranch(zoo.BuildMobileNet(zoo.MobileNetSConfig(4), tensor.NewRNG(3)), 4)
	tb.Finalized = true
	for _, st := range tb.MT.Stages {
		if b, ok := st.(*zoo.DWBlock); ok {
			b.DW.Stride = 0
			break
		}
	}
	var art bytes.Buffer
	if err := serial.SaveDeployment(&art, &serial.Artifact{
		TB: tb, Device: "rpi3", SampleShape: []int{1, 3, 16, 16},
	}); err != nil {
		t.Fatal(err)
	}
	if w := postJSON(t, h, "/v1/models/"+fleet.DefaultModel+"/swap", art.Bytes()); w.Code != http.StatusBadRequest {
		t.Fatalf("swap = %d: %s, want 400", w.Code, w.Body)
	}
	if got := f.Stats().Models[0].Swaps; got != 0 {
		t.Fatalf("fleet swap counter = %d, want 0", got)
	}
	if w := postJSON(t, h, "/v1/infer", inferBody(t, "", randSample(1))); w.Code != http.StatusOK {
		t.Fatalf("infer after the rejected swap = %d: %s", w.Code, w.Body)
	}
}

// ranTap counts protocol runs. A tap fires after its run and before the
// run's pacing sleep, so n > 0 means a worker holds a batch and is pacing —
// which load probes cannot tell from the dispatcher still holding it, and a
// swap that flips before the hand-off drains nothing.
type ranTap struct{ n atomic.Int64 }

func (r *ranTap) TapRun(string, tee.Device, string, int, []tee.Event) float64 {
	r.n.Add(1)
	return 0
}

// TestStatsDuringSwap: liveness and scraping never wait on a swap. One paced
// request holds the only worker, so a swap-over-HTTP is parked draining the
// old generation; /healthz, /metrics and /v1/models must all answer while
// it is still out.
func TestStatsDuringSwap(t *testing.T) {
	var ran ranTap
	s, _ := testServer(t, func(c *fleet.Config) {
		c.MaxBatch = 1
		c.PaceScale = 1000 // one run paces for over a second of wall time
		c.Tap = &ran
	}, nil)
	h := s.Handler()
	var art bytes.Buffer
	if err := serial.SaveDeployment(&art, &serial.Artifact{
		TB: testTwoBranch(7), Device: "rpi3", SampleShape: []int{1, 3, 16, 16},
	}); err != nil {
		t.Fatal(err)
	}
	inferDone := make(chan int, 1)
	go func() { inferDone <- postJSON(t, h, "/v1/infer", inferBody(t, "", randSample(8))).Code }()
	for ran.n.Load() == 0 {
		time.Sleep(100 * time.Microsecond) // until the worker holds the batch
	}
	swapDone := make(chan int, 1)
	go func() {
		swapDone <- postJSON(t, h, "/v1/models/"+fleet.DefaultModel+"/swap", art.Bytes()).Code
	}()
	// The daemon does not expose the moment the swap flips generations, so
	// keep probing across its warm-up and well into its drain.
	for i := 0; i < 50; i++ {
		for _, path := range []string{"/healthz", "/metrics", "/v1/models"} {
			code := getPath(t, h, path).Code
			select {
			case <-swapDone:
				t.Fatalf("swap returned before GET %s (probe %d) did: the endpoint waited on the swap", path, i)
			default:
			}
			if code != http.StatusOK {
				t.Fatalf("GET %s during the swap = %d", path, code)
			}
		}
		time.Sleep(time.Millisecond)
	}
	if code := <-inferDone; code != http.StatusOK {
		t.Fatalf("held request = %d", code)
	}
	if code := <-swapDone; code != http.StatusOK {
		t.Fatalf("swap = %d", code)
	}
}

// TestSwapFromRegistry: ?from= resolves the artifact in the attached store
// instead of the request body, and the registry surfaces on /v1/models.
func TestSwapFromRegistry(t *testing.T) {
	dir := t.TempDir()
	store, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := serial.SaveDeployment(&buf, &serial.Artifact{
		TB: testTwoBranch(77), Device: "rpi3", SampleShape: []int{1, 3, 16, 16},
	}); err != nil {
		t.Fatal(err)
	}
	art, err := serial.LoadDeployment(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Save("challenger", art); err != nil {
		t.Fatal(err)
	}

	s, _ := testServer(t, nil, func(c *Config) { c.Registry = store })
	h := s.Handler()

	w := getPath(t, h, "/v1/models")
	var ms modelsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &ms); err != nil {
		t.Fatal(err)
	}
	if len(ms.Registry) != 1 || ms.Registry[0].Name != "challenger" {
		t.Fatalf("registry listing = %+v", ms.Registry)
	}

	w = postJSON(t, h, "/v1/models/"+fleet.DefaultModel+"/swap?from=challenger", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("swap ?from= = %d: %s", w.Code, w.Body)
	}
	if w := postJSON(t, h, "/v1/models/"+fleet.DefaultModel+"/swap?from=ghost", nil); w.Code != http.StatusNotFound {
		t.Fatalf("swap ?from=ghost = %d, want 404: %s", w.Code, w.Body)
	}
}

// TestReaperExpiresIdleModels: a hosted model with no traffic for the TTL is
// removed — its secure memory released — while the default model and any
// model still seeing traffic survive. The sweeps run on a virtual clock: the
// first stamps every hosted model an hour in the past, "hot" is then touched
// now, and the second sweep finds only "idle" a full TTL old.
func TestReaperExpiresIdleModels(t *testing.T) {
	s, f := testServer(t, func(c *fleet.Config) {
		c.Models = []fleet.NamedModel{
			{Name: "idle", Dep: testDeployment(t, 21)},
			{Name: "hot", Dep: testDeployment(t, 22)},
		}
	}, func(c *Config) { c.IdleTTL = time.Hour })
	s.reaper.sweep(time.Now().Add(-time.Hour))
	s.reaper.touch("hot")
	s.reaper.sweep(time.Now())
	hosted := map[string]bool{}
	for _, m := range f.Models() {
		hosted[m] = true
	}
	if hosted["idle"] {
		t.Fatalf("idle model never reaped; hosted = %v", f.Models())
	}
	if !hosted[fleet.DefaultModel] || !hosted["hot"] {
		t.Fatalf("default/hot must survive the reaper; hosted = %v", f.Models())
	}
	if got := s.metrics.reaped.Load(); got != 1 {
		t.Fatalf("reaped counter = %d, want 1", got)
	}
}

// TestReaperIgnoresUnservedBatchNames is the regression for the reaper's
// activity map growing by a request body's choice: a batch naming a model the
// fleet does not host answers 200 with a per-line 404 and must leave no
// entry behind, while a batch that served at least one sample still stamps
// its model.
func TestReaperIgnoresUnservedBatchNames(t *testing.T) {
	s, _ := testServer(t, nil, nil)
	tracked := func() int {
		s.reaper.mu.Lock()
		defer s.reaper.mu.Unlock()
		return len(s.reaper.lastSeen)
	}
	before := tracked()
	for i := 0; i < 50; i++ {
		body := fmt.Sprintf(`{"model":"ghost-%d","inputs":[[1,2,3]],"shape":[3,1,1]}`, i)
		w := postJSON(t, s.Handler(), "/v1/infer/batch", []byte(body))
		if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"status":404`) {
			t.Fatalf("ghost batch = %d: %s", w.Code, w.Body)
		}
	}
	if got := tracked(); got != before {
		t.Fatalf("reaper tracks %d names after 50 unhosted ones, had %d", got, before)
	}

	data := randSample(7).Data()
	input := make([]float64, len(data))
	for i, v := range data {
		input[i] = float64(v)
	}
	// One good sample and one of the wrong length: served once is served.
	body, _ := json.Marshal(map[string]any{"inputs": [][]float64{input, {1, 2, 3}}})
	if w := postJSON(t, s.Handler(), "/v1/infer/batch", body); w.Code != http.StatusOK {
		t.Fatalf("batch = %d: %s", w.Code, w.Body)
	}
	s.reaper.mu.Lock()
	_, stamped := s.reaper.lastSeen[fleet.DefaultModel]
	s.reaper.mu.Unlock()
	if !stamped {
		t.Fatal("a batch with a served sample did not stamp its model")
	}
}

// TestShutdownWithoutServe is the regression for a daemon that is built,
// mounted through Handler (or never used) and shut down without Serve ever
// running: Shutdown used to wait forever for a reaper loop that was never
// started. It must return promptly and still close the fleet, with and
// without an idle TTL configured.
func TestShutdownWithoutServe(t *testing.T) {
	for _, ttl := range []time.Duration{0, time.Minute} {
		s, f := testServer(t, nil, func(c *Config) { c.IdleTTL = ttl })
		done := make(chan error, 1)
		go func() { done <- s.Shutdown(context.Background()) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("IdleTTL %v: Shutdown = %v", ttl, err)
			}
		case <-time.After(time.Second):
			t.Fatalf("IdleTTL %v: Shutdown without Serve still blocked after 1s", ttl)
		}
		if _, err := f.Infer(context.Background(), randSample(1)); !errors.Is(err, serve.ErrClosed) {
			t.Fatalf("IdleTTL %v: Infer after Shutdown = %v, want ErrClosed", ttl, err)
		}
		// A late Serve is well-defined: it closes its listener and returns nil
		// without accepting, and does not resurrect the reaper loop.
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Serve(l); err != nil {
			t.Fatalf("IdleTTL %v: Serve after Shutdown = %v, want nil", ttl, err)
		}
		if c, err := l.Accept(); err == nil {
			c.Close()
			t.Fatalf("IdleTTL %v: listener still open after a late Serve", ttl)
		}
		s.reaper.stop()
	}
}

// TestConfigValidation: bad configurations fail with ErrHTTPConfig.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil fleet accepted")
	}
	f := testFleet(t, nil)
	bad := []Config{
		{Fleet: f, RateLimit: RateLimit{RPS: -1}},
		{Fleet: f, IdleTTL: -time.Second},
		{Fleet: f, RetryAfter: -time.Second},
		{Fleet: f, APIKeys: map[string]string{"": "t"}},
		{Fleet: f, APIKeys: map[string]string{"k": ""}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}
