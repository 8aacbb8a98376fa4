package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"tbnet"
	"tbnet/internal/core"
	"tbnet/internal/fleet"
	"tbnet/internal/seceval"
)

// options size one run. The window is the contract's --seconds; everything
// else scales from it, so one factor shrinks or stretches the whole run.
type options struct {
	seed       uint64
	window     time.Duration
	coldStarts int           // timed cold starts at least, after one discarded
	coldFor    time.Duration // keep cold-starting until this much time is spent, so a cheap start-up is sampled more
	passes     int           // ladder passes
	outDir     string
	log        io.Writer
}

func (o options) warm() time.Duration { return o.window / 10 }

// The traced run's two live passes (untraced, then traced) are each a third
// of the measured window.
func (o options) livePass() time.Duration { return o.window / 3 }

// The churn swaps the default model every 2 s and scrapes /metrics every
// 0.5 s; windows shorter than 6 s (the quick mode) scale that down so a swap
// still lands inside them.
func (o options) scrapeEvery() time.Duration {
	if every := o.window / 12; every < 500*time.Millisecond {
		return every
	}
	return 500 * time.Millisecond
}

// runner is one workload prepared for measurement: models published, oracle
// and traffic fixed, cold starts timed.
type runner struct {
	w    *workload
	opts options
	reg  *tbnet.Registry
	deps map[string]*core.Deployment
	tr   *traffic
	refs oracle

	// Medians over the timed cold starts: the whole start at reference speed
	// and as measured, and its two layers as measured.
	setupS, setupRawS, loadUs, fleetUs float64
}

// prepare does everything that precedes a measured window.
func prepare(w *workload, opts options) (*runner, error) {
	if err := os.MkdirAll(opts.outDir, 0o755); err != nil {
		return nil, err
	}
	regDir, err := os.MkdirTemp(opts.outDir, "registry-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	r := &runner{w: w, opts: opts}
	if r.reg, err = tbnet.OpenRegistry(regDir); err != nil {
		return nil, err
	}
	if r.deps, err = w.publish(r.reg, opts.seed); err != nil {
		return nil, err
	}
	if r.tr, r.refs, err = w.newTraffic(opts.seed, r.deps); err != nil {
		return nil, err
	}
	return r, r.coldStarts()
}

// cleanup removes the run's registry directory.
func (r *runner) cleanup() { os.RemoveAll(r.reg.Dir()) }

const maxColdStarts = 200

// coldStarts times the daemon's restart path — registry load → fleet.New →
// httpd.New + listen → first correct reply on a fresh connection — and keeps
// the medians. The first cold start pays one-off process costs and is
// discarded. Each start is priced at the host speed index read just before
// it, on the CPU time the process spent inside it.
func (r *runner) coldStarts() error {
	var total, totalRaw, load, fl []float64
	kernel := newRefKernel()
	first := &r.tr.reqs[r.tr.order[0]]
	labels := make([]int, len(first.samples))
	began := time.Now()
	for i := 0; i <= r.opts.coldStarts || (time.Since(began) < r.opts.coldFor && i < maxColdStarts); i++ {
		index := kernel.indexOf(3)
		t0, cpu0 := time.Now(), cpuTime()
		st, err := r.w.start(r.reg, r.opts.seed, nil)
		if err != nil {
			return err
		}
		c := newClient(st.url, 1)
		status, err := c.do(first, "", labels)
		took, cpu := time.Since(t0), cpuTime()-cpu0
		c.close()
		if err == nil && status != 200 {
			err = fmt.Errorf("first request answered %d", status)
		}
		for j, s := range first.samples {
			if err == nil && !r.refs.ok(first.model, s, labels[j]) {
				err = fmt.Errorf("first reply: sample %d labelled %d", s, labels[j])
			}
		}
		if stopErr := st.stop(); err == nil {
			err = stopErr
		}
		if err != nil {
			return fmt.Errorf("cold start %d: %w", i, err)
		}
		if i > 0 {
			total = append(total, atReferenceSpeed(took.Seconds(), cpu.Seconds(), index))
			totalRaw = append(totalRaw, took.Seconds())
			load = append(load, float64(st.loadTime)/1e3)
			fl = append(fl, float64(st.fleetTime)/1e3)
		}
	}
	r.setupS, r.setupRawS, r.loadUs, r.fleetUs = median(total), median(totalRaw), median(load), median(fl)
	return nil
}

func selfUsage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail
	}
	return ru
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	ru := selfUsage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's resident-set high-water mark.
func peakRSSMiB() float64 { return float64(selfUsage().Maxrss) / 1024 } // Linux reports KiB

// livePass is one warmed, measured pass of the workload against a fresh
// daemon.
type livePass struct {
	stats  *phaseStats
	churn  *churnStats
	fleet  fleet.Stats
	tap    *seceval.Tap
	mem    [2]runtime.MemStats // window start, window end
	window time.Duration
}

// live starts a daemon, warms it, and drives the workload for window. A
// sink makes it the traced pass.
func (r *runner) live(window time.Duration, sink *spanSink) (*livePass, error) {
	w, o := r.w, r.opts
	st, err := w.start(r.reg, o.seed, sink)
	if err != nil {
		return nil, err
	}
	c := newClient(st.url, w.clients)
	defer c.close()
	lp := &livePass{window: window, tap: st.tap, churn: &churnStats{}}

	churnDone := make(chan *churnStats, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if w.defended {
		go func() { churnDone <- st.churn(ctx, o.scrapeEvery()) }()
	}

	w.runPhase(c, r.tr, r.refs, o.warm(), nil)
	runtime.ReadMemStats(&lp.mem[0])
	lp.stats = w.runPhase(c, r.tr, r.refs, window, sink)
	runtime.ReadMemStats(&lp.mem[1])

	cancel()
	if w.defended {
		lp.churn = <-churnDone
	}
	lp.fleet = st.fleet.Stats()
	return lp, st.stop()
}

// correct is whether the pass produced only right answers.
func (lp *livePass) correct() bool {
	return lp.stats.failed == 0 && lp.stats.attempted > 0 && lp.churn.err == nil
}

// figures are the timed end-to-end figures of a live pass.
type figures struct {
	p50, p95 float64 // request latency, ms
	sps      float64 // correct samples per second
	cpuMs    float64 // process CPU-ms per correct sample
	index    float64 // median host speed index over the pass
}

// figures reads the pass twice: as measured, and at reference speed. Per bin
// of the window, with the host speed index measured inside that bin:
//
//   - CPU per sample: the bin's process CPU time ÷ its index.
//   - Time: the clients are closed loops, so each spends the bin either
//     having CPU work done on its behalf or waiting on a timer. The busy share
//     is the bin's CPU time ÷ (its length × clients), at most 1; that share of
//     any interval inside the bin is CPU time and is priced at the bin's index
//     (atReferenceSpeed), the rest is left as it was. A request's latency is
//     scaled by the factor of the bin it was sent in, and the bin's own length
//     by the same factor, which gives throughput.
//
// The latency quantiles are then taken over the whole window.
func (lp *livePass) figures(clients int) (raw, ref figures) {
	st, window := lp.stats, lp.window
	bins := binCount(window)
	factor := make([]float64, bins) // a bin's time at reference speed ÷ as measured
	var cpuAll, cpuRef, secondsRef float64
	for b := range factor {
		cpu := (st.cpuAt[b+1] - st.cpuAt[b]).Seconds()
		span := binSpan(b, window).Seconds()
		factor[b] = atReferenceSpeed(1, cpu/(span*float64(clients)), st.index[b])
		cpuAll += cpu
		cpuRef += cpu / st.index[b]
		secondsRef += span * factor[b]
	}
	var ok float64 // correct samples completed inside the window
	for i, at := range st.doneAt {
		if _, in := binOf(at, window); in {
			ok += st.okSamples[i]
		}
	}
	var lat, latRef []float64
	for i, off := range st.offsets {
		if b, in := binOf(off, window); in {
			lat = append(lat, st.latMs[i])
			latRef = append(latRef, st.latMs[i]*factor[b])
		}
	}
	if ok == 0 || len(lat) == 0 {
		return raw, ref // nothing completed: every figure stays 0 and the run is incorrect
	}
	sort.Float64s(lat)
	sort.Float64s(latRef)

	index := median(st.index)
	raw = figures{quantile(lat, 0.50), quantile(lat, 0.95), ok / window.Seconds(), cpuAll * 1e3 / ok, index}
	ref = figures{quantile(latRef, 0.50), quantile(latRef, 0.95), ok / secondsRef, cpuRef * 1e3 / ok, index}
	return raw, ref
}

// endToEnd is the -trace 0 run: the measured window with the benchmark's
// tracing off.
func (r *runner) endToEnd() (*result, error) {
	lp, err := r.live(r.opts.window, nil)
	if err != nil {
		return nil, err
	}
	raw, ref := lp.figures(r.w.clients)
	fmt.Fprintf(r.opts.log, "%s: %d requests; host speed index %.3f (per second: %.2f); as measured: p50 %.3f ms, p95 %.3f ms, %.1f samples/s, %.3f CPU-ms/sample, set-up %.4f s; first error: %v; churn: %d swaps, %d scrapes, error: %v\n",
		r.w.name, len(lp.stats.latMs), ref.index, lp.stats.index, raw.p50, raw.p95, raw.sps, raw.cpuMs, r.setupRawS,
		lp.stats.firstErr, len(lp.churn.swapMs), lp.churn.scrapes, lp.churn.err)
	return &result{
		Correct:   lp.correct(),
		Attempted: lp.stats.attempted,
		Failed:    lp.stats.failed,
		Metrics: emit(endToEnd, map[string]float64{
			"req_p50_ms":        ref.p50,
			"req_p95_ms":        ref.p95,
			"throughput_sps":    ref.sps,
			"cpu_ms_per_sample": ref.cpuMs,
			"peak_rss_mib":      peakRSSMiB(),
			"setup_s":           r.setupS,
		}),
	}, nil
}

// traced is the -trace 1 run: the ladder, then an untraced and a traced live
// pass whose difference is the tracing overhead, then the modeled figures.
// Spans go to trace-<workload>.json.
func (r *runner) traced() (*result, error) {
	w, o := r.w, r.opts
	sink := newSpanSink()
	dep := r.deps[fleet.DefaultModel]
	lad, err := w.runLadder(r.reg, o.seed, dep, r.tr, r.refs, o.passes, sink)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(o.log, "%s: reference conv GEMM (M,K,N) = (%d,%d,%d); tensor.gemm_gops is computed as 2·M·K·N ÷ time; clamped self-times: %v\n",
		w.name, lad.m, lad.k, lad.n, lad.clamped)
	plain, err := r.live(o.livePass(), nil)
	if err != nil {
		return nil, err
	}
	lp, err := r.live(o.livePass(), sink)
	if err != nil {
		return nil, err
	}

	v := lad.values
	v["registry.load_us"], v["fleet.start_us"] = r.loadUs, r.fleetUs

	var batches, routed, routedMax int64
	for _, d := range lp.fleet.PerDevice {
		batches += d.Serve.Batches
		routed += d.Routed
		routedMax = max(routedMax, d.Routed)
	}
	queued := queuedIn(lp.fleet)
	v["serve.mean_batch"] = float64(lp.fleet.Requests) / float64(batches)
	v["serve.queue_wait_us"] = queued.waitUs / float64(queued.samples)
	v["serve.host_us_per_sample"] = lp.fleet.HostNsPerOp / 1e3
	v["serve.errors"] = float64(lp.fleet.Errors)
	v["fleet.shed"] = float64(lp.fleet.Shed)
	v["fleet.route_share_max"] = float64(routedMax) / float64(routed)
	v["fleet.swap_ms"] = median(lp.churn.swapMs) // 0 where the workload does not swap
	v["httpd.non200"] = float64(lp.stats.non200)

	clientUs := sink.durationsByRequest("client.request")
	var waits []float64
	for request, handlerUs := range sink.durationsByRequest("httpd.handler") {
		if c, ok := clientUs[request]; ok {
			waits = append(waits, c-handlerUs)
		}
	}
	v["socket.wait_us"] = median(waits)

	if lp.tap != nil { // 0 where the workload has no tap
		var recs []seceval.RunRecord
		for _, rec := range lp.tap.Runs() {
			if rec.Model == fleet.DefaultModel {
				recs = append(recs, rec)
			}
		}
		v["seceval.hit_rate_live"] = seceval.AttackRecords(recs, seceval.SubjectFor(dep)).MeanHitRate
	} else {
		v["seceval.hit_rate_live"] = 0
	}

	ok := float64(lp.stats.attempted - lp.stats.failed)
	v["go.allocs_per_sample"] = float64(lp.mem[1].Mallocs-lp.mem[0].Mallocs) / ok
	v["go.gc_cycles"] = float64(lp.mem[1].NumGC - lp.mem[0].NumGC)
	v["go.gc_pause_ms"] = float64(lp.mem[1].PauseTotalNs-lp.mem[0].PauseTotalNs) / 1e6
	sorted := append([]float64(nil), lp.stats.latMs...)
	sort.Float64s(sorted)
	v["client.req_p99_ms"] = quantile(sorted, 0.99)
	_, tracedRef := lp.figures(w.clients)
	_, plainRef := plain.figures(w.clients)
	v["bench.trace_overhead_pct"] = (tracedRef.p50 - plainRef.p50) / plainRef.p50 * 100
	v["bench.host_index"] = tracedRef.index

	// The paper's currency. Isolated single-probe captures of the default
	// model, rewritten through the workload's chain where it has one.
	views, runSeconds, err := seceval.CaptureIsolated(dep, 16, int64(o.seed))
	if err != nil {
		return nil, err
	}
	if w.defended {
		chain, err := seceval.ParseChain(defenseChain)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(int64(o.seed)))
		for i := range views {
			views[i], _, _ = chain.Apply(views[i], rng)
		}
	}
	v["modeled_device_ms"] = runSeconds * 1e3
	v["secure_mem_kib"] = float64(lp.fleet.PeakSecureBytes) / 1024
	v["attack_hit_rate"] = seceval.AttackViews(views, seceval.SubjectFor(dep)).MeanHitRate

	if err := sink.write(filepath.Join(o.outDir, "trace-"+w.name+".json")); err != nil {
		return nil, err
	}
	return &result{
		Correct:   lp.correct() && plain.correct(),
		Attempted: lp.stats.attempted + plain.stats.attempted,
		Failed:    lp.stats.failed + plain.stats.failed,
		Metrics:   emit(perLayer, v),
	}, nil
}
