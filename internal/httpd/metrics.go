package httpd

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"tbnet/internal/autoscale"
	"tbnet/internal/buildinfo"
	"tbnet/internal/obs"
)

// httpMetrics is the daemon's own counter set — the HTTP-side story
// (statuses, rate-limit refusals, recovered panics, reaped models, slow
// requests, and the wall-clock request-duration histogram) that complements
// the fleet's serving statistics on /metrics.
type httpMetrics struct {
	mu       sync.Mutex
	byStatus map[int]int64

	rateLimited atomic.Int64
	panics      atomic.Int64
	reaped      atomic.Int64
	slow        atomic.Int64

	// reqDur is the wall-clock duration of every answered request, with the
	// request's X-Request-Id as each bucket's exemplar — the join key that
	// lets an operator go from a slow histogram bucket straight to
	// /debug/trace.
	reqDur obs.Histogram
}

func newHTTPMetrics() *httpMetrics {
	return &httpMetrics{byStatus: make(map[int]int64)}
}

func (m *httpMetrics) observe(status int) {
	m.mu.Lock()
	m.byStatus[status]++
	m.mu.Unlock()
}

// statusCounts returns the per-status request counts in ascending code
// order, for stable exposition output.
func (m *httpMetrics) statusCounts() (codes []int, counts []int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for c := range m.byStatus {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	for _, c := range codes {
		counts = append(counts, m.byStatus[c])
	}
	return codes, counts
}

// promEscape escapes a label value per the Prometheus text exposition
// format: backslash, double quote, and newline.
func promEscape(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// promWriter accumulates one scrape in the Prometheus text exposition
// format, emitting each metric family's HELP/TYPE header exactly once.
type promWriter struct {
	w      io.Writer
	headed map[string]bool
	err    error
}

func newPromWriter(w io.Writer) *promWriter {
	return &promWriter{w: w, headed: make(map[string]bool)}
}

// head writes the family's HELP/TYPE header ahead of its first sample and
// reports whether the scrape is still good to write to.
func (pw *promWriter) head(name, typ, help string) bool {
	if pw.err == nil && !pw.headed[name] {
		pw.headed[name] = true
		_, pw.err = fmt.Fprintf(pw.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	return pw.err == nil
}

// labelPairs renders alternating key, value labels as k="v",k2="v2".
func labelPairs(labels []string) string {
	var lb strings.Builder
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			lb.WriteByte(',')
		}
		fmt.Fprintf(&lb, `%s="%s"`, labels[i], promEscape(labels[i+1]))
	}
	return lb.String()
}

// metric writes one sample of the named family. labels alternate key, value.
func (pw *promWriter) metric(name, typ, help string, value float64, labels ...string) {
	if !pw.head(name, typ, help) {
		return
	}
	line := name
	if l := labelPairs(labels); l != "" {
		line += "{" + l + "}"
	}
	_, pw.err = fmt.Fprintf(pw.w, "%s %g\n", line, value)
}

// promFloat renders a sample value (or le bound) the way the exposition
// format expects, with +Inf spelled literally.
func promFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// histogram writes one Prometheus histogram family from an obs.Histogram
// snapshot: cumulative _bucket samples in ascending le order (closing with
// le="+Inf" equal to _count), then _sum and _count. A bucket that retained
// an exemplar carries it as an OpenMetrics-style trailer —
//
//	name_bucket{le="0.04"} 17 # {trace_id="ab12-000042"} 0.031
//
// — so a scrape of a slow bucket hands the operator a request id to feed
// straight into /debug/trace. A nil histogram writes an empty family (all
// zeros), keeping the family set stable across scrapes.
func (pw *promWriter) histogram(name, help string, h *obs.Histogram, labels ...string) {
	pw.histogramFrom(name, help, h, 0, labels...)
}

// histogramFrom is histogram without the buckets whose upper bound is under
// floor — for a family whose observations cannot fall there (a batch holds
// at least one sample), so the scrape carries no bucket that is zero by
// construction.
func (pw *promWriter) histogramFrom(name, help string, h *obs.Histogram, floor float64, labels ...string) {
	if !pw.head(name, "histogram", help) {
		return
	}
	series, prefix := "", labelPairs(labels)
	if prefix != "" {
		series, prefix = "{"+prefix+"}", prefix+","
	}
	var buckets []obs.BucketCount
	var sum float64
	var count uint64
	if h != nil {
		buckets, sum, count = h.Buckets(), h.Sum(), h.Count()
	} else {
		buckets = []obs.BucketCount{{UpperBound: math.Inf(1)}}
	}
	for _, b := range buckets {
		if b.UpperBound < floor {
			continue
		}
		line := fmt.Sprintf(`%s_bucket{%sle="%s"} %d`, name, prefix, promFloat(b.UpperBound), b.Count)
		if b.Exemplar.TraceID != "" {
			line += fmt.Sprintf(` # {trace_id="%s"} %s`,
				promEscape(b.Exemplar.TraceID), promFloat(b.Exemplar.Value))
		}
		if _, err := fmt.Fprintln(pw.w, line); err != nil {
			pw.err = err
			return
		}
	}
	_, pw.err = fmt.Fprintf(pw.w, "%s_sum%s %s\n%s_count%s %d\n",
		name, series, promFloat(sum), name, series, count)
}

// writeMetrics renders the whole scrape: the fleet's aggregated snapshot
// (requests, shed, latency percentiles, secure footprint), the per-model and
// per-device breakdowns, the latency histogram families, and the daemon's
// HTTP-side counters.
func (s *Server) writeMetrics(w io.Writer) error {
	st := s.cfg.Fleet.Stats()
	pw := newPromWriter(w)

	pw.metric("tbnet_build_info", "gauge",
		"Build identity: constant 1, labeled with the tbnet release and Go toolchain.", 1,
		"version", buildinfo.Version, "goversion", buildinfo.GoVersion())

	// Fleet-wide serving counters and gauges.
	pw.metric("tbnet_fleet_requests_total", "counter",
		"Samples served successfully, fleet-wide.", float64(st.Requests))
	pw.metric("tbnet_fleet_errors_total", "counter",
		"Samples whose protocol run failed, fleet-wide.", float64(st.Errors))
	pw.metric("tbnet_fleet_shed_total", "counter",
		"Requests refused by admission control or expired on the fleet deadline.", float64(st.Shed))
	pw.metric("tbnet_fleet_in_flight", "gauge",
		"Admitted, unanswered requests right now.", float64(st.InFlight))
	pw.metric("tbnet_fleet_routing_decisions_total", "counter",
		"Routing policy picks that resolved.", float64(st.RoutingDecisions))
	pw.metric("tbnet_fleet_devices", "gauge",
		"Attached fleet nodes.", float64(st.Devices))
	pw.metric("tbnet_fleet_p50_latency_seconds", "gauge",
		"Fleet-wide modeled median per-request latency.", st.P50Micros/1e6)
	pw.metric("tbnet_fleet_p95_latency_seconds", "gauge",
		"Fleet-wide modeled p95 per-request latency.", st.P95Micros/1e6)
	pw.metric("tbnet_fleet_p99_latency_seconds", "gauge",
		"Fleet-wide modeled p99 per-request latency.", st.P99Micros/1e6)
	pw.metric("tbnet_fleet_host_ns_per_op", "gauge",
		"Measured host compute nanoseconds per served sample.", st.HostNsPerOp)
	pw.metric("tbnet_fleet_modeled_throughput_rps", "gauge",
		"Summed modeled throughput in requests per modeled device-second.", st.ModeledThroughput)
	pw.metric("tbnet_fleet_peak_secure_bytes", "gauge",
		"Summed secure-memory high-water marks across the fleet.", float64(st.PeakSecureBytes))
	pw.metric("tbnet_fleet_worker_seconds_total", "counter",
		"Integral of provisioned worker count over wall time — capacity paid for.", st.WorkerSeconds)
	pw.histogram("tbnet_fleet_latency_seconds",
		"Modeled per-request latency distribution, fleet-wide.", st.LatencyHist)

	// Per-model breakdown, in hosting order.
	for _, ms := range st.Models {
		l := []string{"model", ms.Name}
		bits := 32.0
		if ms.Precision == "int8" {
			bits = 8
		}
		pw.metric("tbnet_model_precision", "gauge",
			"Weight width in bits of the model's numeric serving path (32=f32, 8=int8).",
			bits, "model", ms.Name, "precision", ms.Precision)
		pw.metric("tbnet_model_requests_total", "counter",
			"Samples served successfully per hosted model.", float64(ms.Requests), l...)
		pw.metric("tbnet_model_errors_total", "counter",
			"Failed samples per hosted model.", float64(ms.Errors), l...)
		pw.metric("tbnet_model_swaps_total", "counter",
			"Completed per-node hot swaps per hosted model.", float64(ms.Swaps), l...)
		pw.metric("tbnet_model_p99_latency_seconds", "gauge",
			"Modeled p99 per-request latency per hosted model.", ms.P99Micros/1e6, l...)
		pw.histogram("tbnet_model_latency_seconds",
			"Modeled per-request latency distribution per hosted model.", ms.LatencyHist, l...)
		pw.histogram("tbnet_queue_wait_seconds",
			"Host-side time from admission to the start of the sample's batch, per hosted model.", ms.QueueWaitHist, l...)
		pw.histogramFrom("tbnet_batch_size",
			"Samples coalesced per protocol run, per hosted model.", ms.BatchSizeHist, 1, l...)
	}

	// Per-device breakdown, in attachment order.
	for _, ds := range st.PerDevice {
		l := []string{"device", ds.Name}
		pw.metric("tbnet_device_routed_total", "counter",
			"Routing decisions that chose this node.", float64(ds.Routed), l...)
		pw.metric("tbnet_device_shed_total", "counter",
			"Requests that missed the fleet deadline on this node.", float64(ds.Shed), l...)
		pw.metric("tbnet_device_requests_total", "counter",
			"Samples served successfully on this node.", float64(ds.Serve.Requests), l...)
		pw.metric("tbnet_device_queue_depth", "gauge",
			"Requests waiting for a batch slot on this node.", float64(ds.Serve.QueueDepth), l...)
		pw.metric("tbnet_device_host_ns_per_op", "gauge",
			"Measured host compute nanoseconds per sample on this node.", ds.Serve.HostNsPerOp, l...)
		pw.metric("tbnet_device_workers", "gauge",
			"Replica pool width on this node right now.", float64(ds.Workers), l...)
		pw.histogram("tbnet_device_latency_seconds",
			"Modeled per-request latency distribution on this node.", ds.Serve.LatencyHist, l...)
	}

	// Online latency estimates, when the fleet learns them (EWMA routing).
	// One gauge cell per (model, device) pair.
	for _, e := range s.cfg.Fleet.Estimates() {
		l := []string{"model", e.Model, "device", e.Node}
		pw.metric("tbnet_ewma_latency_seconds", "gauge",
			"Learned per-sample service-time estimate per model and device.", e.Seconds, l...)
		pw.metric("tbnet_ewma_samples_total", "counter",
			"Observations folded into the latency estimate.", float64(e.Samples), l...)
	}

	// Autoscale controller counters, when one is bound to the fleet.
	if ctl, ok := s.cfg.Fleet.Controller().(*autoscale.Controller); ok && ctl != nil {
		ast := ctl.Stats()
		running := 0.0
		if ast.Running {
			running = 1
		}
		pw.metric("tbnet_autoscale_running", "gauge",
			"1 while the autoscale control loop is live.", running)
		pw.metric("tbnet_autoscale_ticks_total", "counter",
			"Control-loop iterations completed.", float64(ast.Ticks))
		pw.metric("tbnet_autoscale_scale_ups_total", "counter",
			"Actuated worker-pool widenings.", float64(ast.ScaleUps))
		pw.metric("tbnet_autoscale_scale_downs_total", "counter",
			"Actuated worker-pool narrowings.", float64(ast.ScaleDowns))
		pw.metric("tbnet_autoscale_refused_total", "counter",
			"Scale-ups rejected by a device's secure-memory budget.", float64(ast.Refused))
		pw.metric("tbnet_autoscale_workers_min", "gauge",
			"Per-node worker floor the loop enforces.", float64(ast.Min))
		pw.metric("tbnet_autoscale_workers_max", "gauge",
			"Per-node worker ceiling the loop enforces.", float64(ast.Max))
	}

	// Trace-obfuscation spend, when a tap with an obfuscation chain is
	// riding the fleet (tbnetd -obfuscate).
	if s.cfg.Tap != nil {
		pw.metric("tbnet_obfuscation_runs_total", "counter",
			"Worker runs whose attacker-visible trace passed the obfuscation chain.",
			float64(s.cfg.Tap.TotalRuns()))
		pw.metric("tbnet_obfuscation_overhead_seconds_total", "counter",
			"Total modeled latency spent on trace obfuscation, all layers.",
			s.cfg.Tap.OverheadSeconds())
		for _, ls := range s.cfg.Tap.OverheadStats() {
			l := []string{"layer", ls.Layer}
			pw.metric("tbnet_obfuscation_layer_overhead_seconds_total", "counter",
				"Modeled latency spent per obfuscation layer.", ls.OverheadSeconds, l...)
			pw.metric("tbnet_obfuscation_layer_padded_bytes_total", "counter",
				"Padding bytes added to real transfer payloads per layer.", float64(ls.PaddedBytes), l...)
			pw.metric("tbnet_obfuscation_layer_injected_events_total", "counter",
				"Decoy events injected into attacker views per layer.", float64(ls.InjectedEvents), l...)
		}
	}

	// Daemon-side HTTP counters.
	codes, counts := s.metrics.statusCounts()
	for i, c := range codes {
		pw.metric("tbnet_http_requests_total", "counter",
			"HTTP requests answered, by status code.", float64(counts[i]),
			"code", fmt.Sprintf("%d", c))
	}
	pw.metric("tbnet_http_rate_limited_total", "counter",
		"Requests refused by the per-tenant token bucket.", float64(s.metrics.rateLimited.Load()))
	pw.metric("tbnet_http_panics_recovered_total", "counter",
		"Handler panics converted to 500 answers.", float64(s.metrics.panics.Load()))
	pw.metric("tbnet_http_reaped_models_total", "counter",
		"Idle hosted models expired by the reaper.", float64(s.metrics.reaped.Load()))
	pw.metric("tbnet_http_slow_requests_total", "counter",
		"Requests at or over the slow-request journal threshold.", float64(s.metrics.slow.Load()))
	pw.histogram("tbnet_http_request_duration_seconds",
		"Wall-clock HTTP request duration, exemplared with X-Request-Id.", &s.metrics.reqDur)
	draining := 0.0
	if s.draining.Load() {
		draining = 1
	}
	pw.metric("tbnet_http_draining", "gauge",
		"1 while the daemon is draining for shutdown.", draining)
	return pw.err
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.writeMetrics(w); err != nil {
		s.cfg.Logger.Error("metrics scrape failed", "err", err)
	}
}
