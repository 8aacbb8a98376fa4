package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"tbnet"
	"tbnet/internal/core"
	"tbnet/internal/fleet"
	"tbnet/internal/nn"
	"tbnet/internal/obs"
	"tbnet/internal/seceval"
	"tbnet/internal/serve"
	"tbnet/internal/tensor"
	"tbnet/internal/zoo"
)

// rung is one step of the cost ladder: a call into one layer's public
// functions, timed from outside.
type rung struct {
	name string
	fn   func() error
	// queued, on rungs that pass through a serve pool, reads that pool's
	// cumulative served-sample count and queue wait, so the rung can also be
	// taken net of the time its request sat in the micro-batching queue.
	queued func() queueTotals
}

// queueTotals is a serve pool's cumulative queueing, from its public Stats().
type queueTotals struct {
	samples int64
	waitUs  float64
}

func serveQueued(s *serve.Server) func() queueTotals {
	return func() queueTotals {
		st := s.Stats()
		n := st.Requests + st.Errors
		return queueTotals{n, st.AvgQueueWaitMicros * float64(n)}
	}
}

// queuedIn sums the queueing of every node's pool in a fleet snapshot.
func queuedIn(st fleet.Stats) (q queueTotals) {
	for _, d := range st.PerDevice {
		n := d.Serve.Requests + d.Serve.Errors
		q.samples += n
		q.waitUs += d.Serve.AvgQueueWaitMicros * float64(n)
	}
	return q
}

// waitOf returns how long the one request sent since before sat queued. serve
// answers a request just before it records it, so the count is awaited first.
func (r rung) waitOf(before queueTotals) float64 {
	for {
		if now := r.queued(); now.samples > before.samples {
			return now.waitUs - before.waitUs
		}
		runtime.Gosched()
	}
}

// refConv returns the reference conv of a model — the nn.Conv2D with the
// most multiply-accumulates for a single sample of shape in — and the shape
// of that conv's input. The f32 and int8 forms of one architecture therefore
// always share a shape.
func refConv(m *zoo.Model, in []int) (best *nn.Conv2D, bestIn []int) {
	bestMACs := 0
	consider := func(c *nn.Conv2D, cin []int) {
		out := c.OutShape(cin)
		if macs := c.OutC * c.InC * c.KH * c.KW * out[2] * out[3]; macs > bestMACs {
			best, bestIn, bestMACs = c, cin, macs
		}
	}
	cur := in
	for _, s := range m.Stages {
		switch b := s.(type) {
		case *zoo.ConvBlock:
			consider(b.Conv, cur)
		case *zoo.ResBlock:
			consider(b.Conv1, cur)
			consider(b.Conv2, b.Conv1.OutShape(cur))
			if b.Down != nil {
				consider(b.Down, cur)
			}
		case *zoo.DWBlock:
			consider(b.PW, b.DW.OutShape(cur))
		}
		cur = s.OutShape(cur)
	}
	return best, bestIn
}

// tensorRungs builds the two kernel rungs of conv c on input x: patch
// lowering and the N=1 GEMM dispatch Conv2D.ForwardInto uses, in c's own
// precision. GEMM operands other than the activations are seeded noise: the
// kernels' cost does not depend on the values. It returns the GEMM's
// (M, K, N).
func tensorRungs(c *nn.Conv2D, x *tensor.Tensor, rng *tensor.RNG) (lower, gemm func() error, m, k, n int) {
	h, w := x.Dim(2), x.Dim(3)
	out := c.OutShape(x.Shape())
	m, k, n = c.OutC, c.InC*c.KH*c.KW, out[2]*out[3]
	xd := x.Data()
	if !c.Int8() {
		cols := make([]float32, k*n)
		dst := make([]float32, m*n)
		wd := c.W.Value.Data()
		lower = func() error {
			tensor.Im2Col(xd, c.InC, h, w, c.KH, c.KW, c.Stride, c.Pad, cols)
			return nil
		}
		gemm = func() error {
			tensor.GemmParallel(dst, wd, cols, m, n, k)
			return nil
		}
		return lower, gemm, m, k, n
	}
	qin := make([]int8, len(xd))
	cols := make([]int8, k*n)
	acc := make([]int32, m*n)
	qw := make([]int8, m*k)
	for i := range qw {
		qw[i] = int8(rng.Intn(255) - 127)
	}
	lower = func() error {
		tensor.QuantizeI8(xd, tensor.QuantScale(tensor.MaxAbs(xd)), qin)
		tensor.Im2RowI8(qin, c.InC, h, w, c.KH, c.KW, c.Stride, c.Pad, cols)
		return nil
	}
	gemm = func() error {
		tensor.GemmI8Parallel(acc, qw, cols, m, n, k)
		return nil
	}
	return lower, gemm, m, k, n
}

// branchRung runs one extracted branch stage by stage (Σ Stage.InferInto +
// head) and accumulates each stage's time into stageUs, when given.
func branchRung(m *zoo.Model, x *tensor.Tensor, stageUs [][]float64) func() error {
	arena := nn.NewArena()
	shapes := m.StageShapes(x.Shape())
	bufs := make([]*tensor.Tensor, len(shapes))
	for i, s := range shapes {
		bufs[i] = tensor.New(s...)
	}
	return func() error {
		cur := x
		for i, s := range m.Stages {
			t0 := time.Now()
			s.InferInto(bufs[i], cur, arena)
			if stageUs != nil {
				stageUs[i] = append(stageUs[i], float64(time.Since(t0))/1e3)
			}
			cur = bufs[i]
		}
		m.Head.InferInto(bufs[len(bufs)-1], cur, arena)
		return nil
	}
}

// allocsPer is the mean number of heap allocations, process-wide, one call
// of fn makes.
func allocsPer(runs int, fn func() error) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), nil
}

// ladderResult is the ladder's contribution to the per-layer metrics.
type ladderResult struct {
	values  map[string]float64
	clamped []string // self-times that came out negative and were clamped to 0
	m, k, n int      // the reference conv's GEMM shape
}

// runLadder times every rung of the request path, bottom up, passes times on
// the workload's default model, precision and serving configuration. Each
// pass is one root span `request` with one child span per rung, all on the
// same sample.
func (w *workload) runLadder(reg *tbnet.Registry, seed uint64, dep *core.Deployment, tr *traffic, refs oracle, passes int, sink *spanSink) (*ladderResult, error) {
	x := tr.samples[0]
	rng := tensor.NewRNG(seed ^ 0x1adde5)
	ctx := context.Background()
	one := make([]int, 1)

	mr := dep.ExtractedMR()
	conv, convIn := refConv(mr, x.Shape())
	convX := tensor.New(convIn...)
	rng.FillNormal(convX, 0, 1)
	lower, gemm, m, k, n := tensorRungs(conv, convX, rng)
	convDst := tensor.New(conv.OutShape(convIn)...)
	convArena := nn.NewArena()

	stageUs := make([][]float64, len(mr.Stages))

	rep1, err := dep.Replicate(1)
	if err != nil {
		return nil, err
	}
	rep8, err := dep.Replicate(8)
	if err != nil {
		return nil, err
	}
	x8 := tensor.New(8, sampleShape[1], sampleShape[2], sampleShape[3])
	for i := 0; i < 8; i++ {
		copy(x8.Data()[i*x.Size():], tr.samples[i].Data())
	}
	eight := make([]int, 8)
	var bd obs.ExecBreakdown
	var reeUs, teeUs []float64

	chain, err := seceval.ParseChain(defenseChain)
	if err != nil {
		return nil, err
	}
	plainCfg := serve.Config{Workers: w.workers, MaxBatch: w.maxBatch}
	tracedCfg, tappedCfg := plainCfg, plainCfg
	tracedCfg.Tracer = obs.NewTracer(traceRing)
	tappedCfg.Tap = seceval.NewTap(seceval.WithObfuscation(chain), seceval.WithSeed(int64(seed)),
		seceval.WithRunLimit(tapRunLimit)).ForNode("ladder")
	servers := make([]*serve.Server, 3)
	for i, cfg := range []serve.Config{plainCfg, tracedCfg, tappedCfg} {
		if servers[i], err = serve.New(dep, cfg); err != nil {
			return nil, err
		}
		defer servers[i].Close()
	}
	serveRung := func(name string, s *serve.Server) rung {
		return rung{name, func() error { _, err := s.Infer(ctx, x); return err }, serveQueued(s)}
	}

	st, err := w.start(reg, seed, nil)
	if err != nil {
		return nil, err
	}
	defer st.stop()
	input := make([]float64, x.Size())
	for i, v := range x.Data() {
		input[i] = float64(v)
	}
	body, err := json.Marshal(map[string]any{"input": input})
	if err != nil {
		return nil, err
	}
	handler := st.srv.Handler()
	viaHandler := func(method, path string, body []byte) error {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("%s %s answered %d", method, path, rec.Code)
		}
		return nil
	}
	sock := newClient(st.url, 1)
	defer sock.close()
	sockReq := &wireRequest{"/v1/infer", body, fleet.DefaultModel, []int{0}}

	coreInfer := func() error { _, err := rep1.InferInto(x, one); return err }
	serveInfer := serveRung("serve.infer", servers[0])
	viaFleet := func() queueTotals { return queuedIn(st.fleet.Stats()) }
	rungs := []rung{
		{name: "tensor.lower", fn: lower},
		{name: "tensor.gemm", fn: gemm},
		{name: "nn.conv", fn: func() error { conv.ForwardInto(convDst, convX, convArena); return nil }},
		{name: "zoo.mr", fn: branchRung(mr, x, stageUs)},
		{name: "zoo.mt", fn: branchRung(dep.Snapshot().MT, x, nil)},
		{name: "core.infer", fn: coreInfer},
		{name: "core.infer_observed", fn: func() error {
			_, err := rep1.InferIntoObserved(x, one, &bd)
			reeUs, teeUs = append(reeUs, float64(bd.REENs)/1e3), append(teeUs, float64(bd.TEENs)/1e3)
			return err
		}},
		serveInfer,
		serveRung("serve.infer_traced", servers[1]),
		serveRung("serve.infer_tapped", servers[2]),
		{"fleet.infer", func() error { _, err := st.fleet.Infer(ctx, x); return err }, viaFleet},
		{name: "httpd.decode", fn: func() error {
			// The body alone, decoded the way httpd's decodeBody does.
			var req struct {
				Model string    `json:"model,omitempty"`
				Input []float64 `json:"input"`
				Shape []int     `json:"shape,omitempty"`
			}
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			return dec.Decode(&req)
		}},
		{"httpd.handler", func() error { return viaHandler(http.MethodPost, "/v1/infer", body) }, viaFleet},
		{name: "httpd.metrics", fn: func() error { return viaHandler(http.MethodGet, "/metrics", nil) }},
		{"socket.rtt", func() error {
			status, err := sock.do(sockReq, "", one)
			if err == nil && (status != http.StatusOK || !refs.ok(fleet.DefaultModel, 0, one[0])) {
				err = fmt.Errorf("socket rung: status %d, label %d", status, one[0])
			}
			return err
		}, viaFleet},
	}

	const warmPasses = 5 // size arenas, open the connection, fill caches
	us := make(map[string][]float64, len(rungs))
	netUs := make(map[string][]float64) // rungs through a serve pool, net of queue wait
	for pass := -warmPasses; pass < passes; pass++ {
		if pass == 0 {
			for i := range stageUs {
				stageUs[i] = stageUs[i][:0]
			}
			reeUs, teeUs = reeUs[:0], teeUs[:0]
		}
		var root int64
		var request string
		if pass >= 0 {
			root, request = sink.open("request", time.Now())
		}
		for _, r := range rungs {
			var before queueTotals
			if r.queued != nil {
				before = r.queued()
			}
			t0 := time.Now()
			if err := r.fn(); err != nil {
				return nil, fmt.Errorf("ladder rung %s: %w", r.name, err)
			}
			t1 := time.Now()
			if pass < 0 {
				continue
			}
			took := float64(t1.Sub(t0)) / 1e3
			us[r.name] = append(us[r.name], took)
			sink.add(root, request, r.name, t0, t1)
			if r.queued != nil {
				netUs[r.name] = append(netUs[r.name], took-r.waitOf(before))
			}
		}
		if pass >= 0 {
			sink.close(root, time.Now())
		}
	}

	// The batch-8 inference is a side measurement, not a rung: inside a pass
	// its working set would evict the next rung's.
	for pass := -warmPasses; pass < passes; pass++ {
		t0 := time.Now()
		if _, err := rep8.InferInto(x8, eight); err != nil {
			return nil, fmt.Errorf("ladder core.infer_b8: %w", err)
		}
		if t1 := time.Now(); pass >= 0 {
			us["core.infer_b8"] = append(us["core.infer_b8"], float64(t1.Sub(t0))/1e3)
			sink.add(0, "", "core.infer_b8", t0, t1)
		}
	}

	res := &ladderResult{values: make(map[string]float64), m: m, k: k, n: n}
	v := res.values
	med := func(name string) float64 { return median(us[name]) }
	net := func(name string) float64 { return median(netUs[name]) }
	self := func(metric string, total float64, below ...float64) {
		s, clamped := selfTime(total, below...)
		v[metric] = s
		if clamped {
			res.clamped = append(res.clamped, metric)
		}
	}
	v["tensor.lower_us"] = med("tensor.lower")
	v["tensor.gemm_us"] = med("tensor.gemm")
	v["tensor.gemm_gops"] = 2 * float64(m) * float64(k) * float64(n) / (v["tensor.gemm_us"] * 1e3)
	v["nn.conv_us"] = med("nn.conv")
	self("nn.conv_self_us", v["nn.conv_us"], v["tensor.lower_us"], v["tensor.gemm_us"])
	v["zoo.mr_us"] = med("zoo.mr")
	v["zoo.mt_us"] = med("zoo.mt")
	for _, s := range stageUs {
		if sm := median(s); sm > v["zoo.stage_max_us"] {
			v["zoo.stage_max_us"] = sm
		}
	}
	v["core.infer_us"] = med("core.infer")
	self("core.self_us", v["core.infer_us"], v["zoo.mr_us"], v["zoo.mt_us"])
	v["core.ree_us"] = median(reeUs)
	v["core.tee_us"] = median(teeUs)
	v["core.infer_b8_us_per_sample"] = med("core.infer_b8") / 8
	v["serve.infer_us"] = med("serve.infer")
	self("serve.self_us", v["serve.infer_us"], v["core.infer_us"])
	// Above serve, a layer's own cost is tens of µs while the queue wait below
	// it swings by up to a millisecond with the phase of MaxDelay's timer, so
	// these differences are taken net of each request's queue wait.
	v["fleet.infer_us"] = med("fleet.infer")
	self("fleet.self_us", net("fleet.infer"), net("serve.infer"))
	v["httpd.handler_us"] = med("httpd.handler")
	self("httpd.self_us", net("httpd.handler"), net("fleet.infer"))
	v["httpd.decode_us"] = med("httpd.decode")
	v["httpd.metrics_render_us"] = med("httpd.metrics")
	v["socket.rtt_us"] = med("socket.rtt")
	self("socket.self_us", net("socket.rtt"), net("httpd.handler"))
	v["httpd.decode_share"] = v["httpd.decode_us"] / v["socket.rtt_us"]
	// Overheads are differences of two separately timed rungs, reported as
	// measured: a negative value says the layer costs less than the noise.
	v["obs.trace_overhead_us"] = net("serve.infer_traced") - net("serve.infer")
	v["seceval.tap_overhead_us"] = net("serve.infer_tapped") - net("serve.infer")

	const allocRuns = 50
	if v["core.allocs_per_infer"], err = allocsPer(allocRuns, coreInfer); err != nil {
		return nil, err
	}
	if v["serve.allocs_per_infer"], err = allocsPer(allocRuns, serveInfer.fn); err != nil {
		return nil, err
	}
	return res, nil
}
