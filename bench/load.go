package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"tbnet/internal/core"
	"tbnet/internal/fleet"
	"tbnet/internal/tensor"
)

const (
	sampleCount = 64   // seeded inputs per workload
	batchBodies = 16   // distinct pre-marshaled bodies of a batch workload
	sequenceLen = 1024 // length of the seeded request order the clients walk
)

// wireRequest is one pre-marshaled request: set-up pays for the JSON
// encoding so the measured window holds none of the client's.
type wireRequest struct {
	path    string
	body    []byte
	model   string
	samples []int // indices of the samples in the body, in order
}

// traffic is everything the load generator will send, fixed by the seed
// before any clock starts. The daemon only ever receives these inputs.
type traffic struct {
	samples []*tensor.Tensor
	reqs    []wireRequest
	order   []int // seeded walk over reqs
}

// oracle holds, per model and sample, the labels a correct reply may carry:
// one reference label, or two for a model the churn swaps between versions.
type oracle map[string][][]int

func (o oracle) ok(model string, sample, label int) bool {
	for _, want := range o[model][sample] {
		if label == want {
			return true
		}
	}
	return false
}

// newTraffic draws the samples, computes the reference labels with a direct
// Deployment.Infer on the published (private) sessions, and marshals every
// request body in the wire form the repo's own HTTP client sends.
func (w *workload) newTraffic(seed uint64, deps map[string]*core.Deployment) (*traffic, oracle, error) {
	rng := tensor.NewRNG(seed ^ 0x5eed)
	tr := &traffic{}
	inputs := make([][]float64, sampleCount)
	for i := range inputs {
		x := tensor.New(sampleShape...)
		rng.FillNormal(x, 0, 1)
		tr.samples = append(tr.samples, x)
		inputs[i] = make([]float64, x.Size())
		for j, v := range x.Data() {
			inputs[i][j] = float64(v)
		}
	}

	refs := make(oracle)
	label := func(dep *core.Deployment, x *tensor.Tensor) (int, error) {
		labels, err := dep.Infer(x)
		if err != nil {
			return 0, fmt.Errorf("reference inference: %w", err)
		}
		return labels[0], nil
	}
	for _, m := range w.models {
		refs[m.name] = make([][]int, sampleCount)
		for i, x := range tr.samples {
			l, err := label(deps[m.name], x)
			if err != nil {
				return nil, nil, err
			}
			refs[m.name][i] = []int{l}
		}
	}
	if alt := deps[swapModelName]; alt != nil {
		for i, x := range tr.samples {
			l, err := label(alt, x)
			if err != nil {
				return nil, nil, err
			}
			refs[fleet.DefaultModel][i] = append(refs[fleet.DefaultModel][i], l)
		}
	}

	type singleBody struct {
		Model string    `json:"model,omitempty"`
		Input []float64 `json:"input"`
	}
	type batchBody struct {
		Model  string      `json:"model,omitempty"`
		Inputs [][]float64 `json:"inputs"`
	}
	wireName := func(m modelSpec) string {
		if m.name == fleet.DefaultModel {
			return "" // the default model is addressed by omission, as a plain client does
		}
		return m.name
	}
	first := make(map[string]int) // model → index of its first request
	for _, m := range w.models {
		first[m.name] = len(tr.reqs)
		if w.perReq == 1 {
			for i := range inputs {
				body, err := json.Marshal(singleBody{Model: wireName(m), Input: inputs[i]})
				if err != nil {
					return nil, nil, err
				}
				tr.reqs = append(tr.reqs, wireRequest{"/v1/infer", body, m.name, []int{i}})
			}
			continue
		}
		for b := 0; b < batchBodies; b++ {
			picks := make([]int, w.perReq)
			body := batchBody{Model: wireName(m)}
			for k := range picks {
				picks[k] = rng.Intn(sampleCount)
				body.Inputs = append(body.Inputs, inputs[picks[k]])
			}
			data, err := json.Marshal(body)
			if err != nil {
				return nil, nil, err
			}
			tr.reqs = append(tr.reqs, wireRequest{"/v1/infer/batch", data, m.name, picks})
		}
	}
	perModel := len(tr.reqs) / len(w.models)
	for i := 0; i < sequenceLen; i++ {
		u, m := rng.Float64(), 0
		for m < len(w.models)-1 && u >= w.models[m].share {
			u -= w.models[m].share
			m++
		}
		tr.order = append(tr.order, first[w.models[m].name]+rng.Intn(perModel))
	}
	return tr, refs, nil
}

// client is the load generator's HTTP side: persistent connections, at most
// one per load-generator goroutine.
type client struct {
	http *http.Client
	url  string
}

func newClient(url string, conns int) *client {
	return &client{
		url: url,
		http: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
		},
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request and writes the label of every sample into labels
// (len(r.samples); -1 where no label came back). It returns the HTTP status;
// a transport or framing error leaves the missing labels at -1.
func (c *client) do(r *wireRequest, requestID string, labels []int) (status int, err error) {
	for i := range labels {
		labels[i] = -1
	}
	req, err := http.NewRequest(http.MethodPost, c.url+r.path, bytes.NewReader(r.body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if requestID != "" {
		req.Header.Set(requestIDHeader, requestID)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // so the connection is reused
		return resp.StatusCode, nil
	}
	if len(labels) == 1 {
		var out struct {
			Label *int `json:"label"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return resp.StatusCode, err
		}
		if out.Label != nil {
			labels[0] = *out.Label
		}
		return resp.StatusCode, nil
	}
	// NDJSON: one line per sample in completion order. The line count must
	// match and no line may carry an error; a label of 0 is omitted on the
	// wire, so an absent label on an error-free line is class 0.
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line struct {
			Index int    `json:"index"`
			Label int    `json:"label"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return resp.StatusCode, err
		}
		lines++
		if line.Error == "" && line.Index >= 0 && line.Index < len(labels) {
			labels[line.Index] = line.Label
		}
	}
	if err := sc.Err(); err != nil {
		return resp.StatusCode, err
	}
	if lines != len(labels) {
		return resp.StatusCode, fmt.Errorf("batch reply has %d lines for %d samples", lines, len(labels))
	}
	return resp.StatusCode, nil
}

// phaseStats is what one load phase observed. Operations are counted in
// samples; latencies are per HTTP request.
type phaseStats struct {
	offsets   []time.Duration // when each request was sent
	latMs     []float64
	doneAt    []time.Duration // when each request's reply was complete
	okSamples []float64       // how many of its samples were answered correctly
	attempted int
	failed    int
	non200    int
	firstErr  error
	// Per bin of the phase (binLen): the process CPU time at every bin
	// boundary, one entry more than there are bins, and the host's speed index
	// inside every bin.
	cpuAt []time.Duration
	index []float64
}

func (p *phaseStats) merge(o *phaseStats) {
	p.offsets = append(p.offsets, o.offsets...)
	p.latMs = append(p.latMs, o.latMs...)
	p.doneAt = append(p.doneAt, o.doneAt...)
	p.okSamples = append(p.okSamples, o.okSamples...)
	p.attempted += o.attempted
	p.failed += o.failed
	p.non200 += o.non200
	if p.firstErr == nil {
		p.firstErr = o.firstErr
	}
}

// runPhase drives one phase of load and checks every reply against the
// oracle. It is a closed loop: each client sends its next request when the
// previous one completes, until dur has passed. A sink adds one
// client.request span per request. The host's speed index and the process's
// CPU time are recorded per bin beside the load.
func (w *workload) runPhase(c *client, tr *traffic, refs oracle, dur time.Duration, sink *spanSink) *phaseStats {
	start := time.Now()
	parts := make([]*phaseStats, w.clients)
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := range parts {
		ps := &phaseStats{}
		parts[k] = ps
		wg.Add(1)
		go func() {
			defer wg.Done()
			labels := make([]int, w.perReq)
			for {
				i := int(next.Add(1) - 1)
				sent := time.Now()
				due := sent.Sub(start)
				if due >= dur {
					return
				}
				r := &tr.reqs[tr.order[i%len(tr.order)]]
				id, request := sink.open("client.request", sent)
				status, err := c.do(r, request, labels)
				done := time.Now()
				sink.close(id, done)

				ps.offsets = append(ps.offsets, due)
				ps.latMs = append(ps.latMs, float64(done.Sub(start)-due)/1e6)
				ps.doneAt = append(ps.doneAt, done.Sub(start))
				ps.attempted += len(r.samples)
				if status != http.StatusOK {
					ps.non200++
				}
				if err != nil && ps.firstErr == nil {
					ps.firstErr = err
				}
				ok := 0
				for j, s := range r.samples {
					if err == nil && status == http.StatusOK && refs.ok(r.model, s, labels[j]) {
						ok++
					}
				}
				ps.failed += len(r.samples) - ok
				ps.okSamples = append(ps.okSamples, float64(ok))
			}
		}()
	}
	meter := startHostMeter(start)
	total := &phaseStats{cpuAt: make([]time.Duration, binCount(dur)+1)}
	for b := range total.cpuAt {
		time.Sleep(min(time.Duration(b)*binLen, dur) - time.Since(start))
		total.cpuAt[b] = cpuTime()
	}
	wg.Wait()
	total.index = meter.perBin(dur)
	for _, ps := range parts {
		total.merge(ps)
	}
	return total
}

// churnStats is what the defended workload's control-plane loop observed.
type churnStats struct {
	swapMs  []float64
	scrapes int
	err     error
}

// churn is the defended workload's background control plane: it scrapes
// /metrics every scrapeEvery and, every fourth scrape, hot-swaps the default
// model between its two versions. It runs until ctx is cancelled.
func (st *stack) churn(ctx context.Context, scrapeEvery time.Duration) *churnStats {
	cs := &churnStats{}
	scraper := newClient(st.url, 1)
	defer scraper.close()
	next := st.alt
	tick := time.NewTicker(scrapeEvery)
	defer tick.Stop()
	for n := 1; ; n++ {
		select {
		case <-ctx.Done():
			return cs
		case <-tick.C:
		}
		resp, err := scraper.http.Get(st.url + "/metrics")
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("/metrics answered %s", resp.Status)
			}
		}
		if err == nil && n%4 == 0 {
			t0 := time.Now()
			if err = st.fleet.SwapModel(fleet.DefaultModel, next); err == nil {
				cs.swapMs = append(cs.swapMs, float64(time.Since(t0))/1e6)
				if next == st.alt {
					next = st.def
				} else {
					next = st.alt
				}
			}
		}
		if err != nil && cs.err == nil {
			cs.err = err
		}
		cs.scrapes++
	}
}
