package main

// metricDef declares one metric the runner emits. BENCHMARK.json carries the
// same declarations for the driver; TestBenchmarkJSONAgrees keeps the two in
// step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the median it may worsen by
}

// endToEnd are the metrics a user of the daemon sees, emitted with -trace 0.
// They are all measured on the host; the paper's modeled quantities are
// per-layer metrics with units of their own (the last three of perLayer), so
// the two currencies never share a column. The four timed ones and setup_s
// are reported at reference speed (hostspeed.go): this class of host makes
// CPU work cost 1.2 to 2 times as much for minutes at a time, and as measured
// they follow the host, not the program (README, "Reference speed" and "How
// the bounds were measured").
var endToEnd = []metricDef{
	{"req_p50_ms", "ms", "lower", 0.25},
	{"req_p95_ms", "ms", "lower", 0.25},
	{"throughput_sps", "samples/s", "higher", 0.25},
	{"cpu_ms_per_sample", "ms", "lower", 0.25},
	{"peak_rss_mib", "MiB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics of single layers, emitted with -trace 1. Ladder
// values are medians over the ladder passes; "under load" values come from
// the live pass and the public Stats() snapshots.
var perLayer = []metricDef{
	// Ladder, bottom up. The tensor and nn rungs run the reference conv: the
	// nn.Conv2D with the most multiply-accumulates in the default model's M_R.
	{"tensor.lower_us", "us", "lower", 0},
	{"tensor.gemm_us", "us", "lower", 0},
	{"tensor.gemm_gops", "Gop/s", "higher", 0}, // computed 2·M·K·N ÷ time
	{"nn.conv_us", "us", "lower", 0},
	{"nn.conv_self_us", "us", "lower", 0},
	{"zoo.mr_us", "us", "lower", 0},
	{"zoo.mt_us", "us", "lower", 0},
	{"zoo.stage_max_us", "us", "lower", 0},
	{"core.infer_us", "us", "lower", 0},
	{"core.self_us", "us", "lower", 0},
	{"core.ree_us", "us", "lower", 0},
	{"core.tee_us", "us", "lower", 0},
	{"core.infer_b8_us_per_sample", "us", "lower", 0},
	{"core.allocs_per_infer", "count", "lower", 0},
	{"serve.infer_us", "us", "lower", 0},
	{"serve.self_us", "us", "lower", 0},
	{"serve.allocs_per_infer", "count", "lower", 0},
	{"fleet.infer_us", "us", "lower", 0},
	{"fleet.self_us", "us", "lower", 0},
	{"httpd.handler_us", "us", "lower", 0},
	{"httpd.self_us", "us", "lower", 0},
	{"httpd.decode_us", "us", "lower", 0},
	{"httpd.decode_share", "ratio", "lower", 0},
	{"httpd.metrics_render_us", "us", "lower", 0},
	{"socket.rtt_us", "us", "lower", 0},
	{"socket.self_us", "us", "lower", 0},
	{"obs.trace_overhead_us", "us", "lower", 0},
	{"seceval.tap_overhead_us", "us", "lower", 0},
	// Cold start, split by layer.
	{"registry.load_us", "us", "lower", 0},
	{"fleet.start_us", "us", "lower", 0},
	// Under load (the traced live pass).
	{"serve.mean_batch", "samples", "higher", 0},
	{"serve.queue_wait_us", "us", "lower", 0},
	{"serve.host_us_per_sample", "us", "lower", 0},
	{"serve.errors", "count", "lower", 0},
	{"fleet.shed", "count", "lower", 0},
	{"fleet.route_share_max", "ratio", "lower", 0},
	{"fleet.swap_ms", "ms", "lower", 0},
	{"httpd.non200", "count", "lower", 0},
	{"socket.wait_us", "us", "lower", 0},
	{"seceval.hit_rate_live", "ratio", "lower", 0},
	{"go.allocs_per_sample", "count", "lower", 0},
	{"go.gc_cycles", "count", "lower", 0},
	{"go.gc_pause_ms", "ms", "lower", 0},
	{"client.req_p99_ms", "ms", "lower", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
	{"bench.host_index", "ratio", "lower", 0}, // the host during the traced pass; the per-layer times are as measured
	// The paper's currency: modeled, deterministic, never mixed with host time.
	{"modeled_device_ms", "modeled_ms", "lower", 0},
	{"secure_mem_kib", "modeled_KiB", "lower", 0},
	{"attack_hit_rate", "ratio", "lower", 0},
}

// metricValue is one emitted number, in the shape the driver reads.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit packs values into the declared metric set: every declared name must
// have a value and nothing undeclared may be given, so the runner cannot
// drift from its own declarations.
func emit(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			panic("bench: metric " + d.Name + " declared but not measured")
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(values) != len(defs) {
		for name := range values {
			if _, ok := out[name]; !ok {
				panic("bench: metric " + name + " measured but not declared")
			}
		}
	}
	return out
}
