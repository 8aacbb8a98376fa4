package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{7}, 0.95, 7},
		{[]float64{1, 2, 3, 4}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0.95, 4.8},
		{[]float64{1, 2, 3, 4, 5}, 0, 1},
		{[]float64{1, 2, 3, 4, 5}, 1, 5},
	} {
		if got := quantile(tc.xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", tc.xs, tc.q, got, tc.want)
		}
	}
}

func TestBins(t *testing.T) {
	sec := time.Second
	if n := binCount(20 * sec); n != 20 {
		t.Errorf("binCount(20s) = %d, want 20", n)
	}
	window := 6670 * time.Millisecond
	if n := binCount(window); n != 7 {
		t.Errorf("binCount(6.67s) = %d, want 7", n)
	}
	if got := binSpan(6, window); got != 670*time.Millisecond {
		t.Errorf("last bin spans %v, want 670ms", got)
	}
	if got := binSpan(0, window); got != sec {
		t.Errorf("first bin spans %v, want 1s", got)
	}
	for _, tc := range []struct {
		off time.Duration
		bin int
		in  bool
	}{{-1, 0, false}, {0, 0, true}, {sec - 1, 0, true}, {sec, 1, true}, {window - 1, 6, true}, {window, 0, false}} {
		if b, in := binOf(tc.off, window); b != tc.bin || in != tc.in {
			t.Errorf("binOf(%v) = %d,%v, want %d,%v", tc.off, b, in, tc.bin, tc.in)
		}
	}
}

func TestAtReferenceSpeed(t *testing.T) {
	for _, tc := range []struct{ d, cpu, h, want float64 }{
		{10, 10, 2, 5},   // all computation: d/h
		{10, 4, 2, 8},    // 4 of CPU cost twice its price: 2 of it is the host's
		{10, 20, 2, 5},   // CPU time on other threads cannot exceed the interval
		{10, 4, 1, 10},   // reference speed: as measured
		{10, 0, 3, 10},   // a pure wait does not stretch
		{10, 4, 0.5, 14}, // a faster host is priced up
	} {
		if got := atReferenceSpeed(tc.d, tc.cpu, tc.h); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("atReferenceSpeed(%v, %v, %v) = %v, want %v", tc.d, tc.cpu, tc.h, got, tc.want)
		}
	}
}

// A two-second pass, one closed-loop client. Second 0 ran at index 2 and
// spent 400 ms of CPU on two requests (300 and 500 ms); second 1 ran at index
// 1 and spent 200 ms on two (100 and 200 ms). Every request is one sample.
func TestFiguresAtReferenceSpeed(t *testing.T) {
	ms := time.Millisecond
	lp := &livePass{window: 2 * time.Second, stats: &phaseStats{
		offsets:   []time.Duration{100 * ms, 400 * ms, 1000 * ms, 1500 * ms},
		latMs:     []float64{300, 500, 100, 200},
		doneAt:    []time.Duration{400 * ms, 900 * ms, 1100 * ms, 1700 * ms},
		okSamples: []float64{1, 1, 1, 1},
		cpuAt:     []time.Duration{0, 400 * ms, 600 * ms},
		index:     []float64{2, 1},
	}}
	near := func(a, b figures) bool {
		for _, d := range []float64{a.p50 - b.p50, a.p95 - b.p95, a.sps - b.sps, a.cpuMs - b.cpuMs, a.index - b.index} {
			if math.Abs(d) > 1e-9 {
				return false
			}
		}
		return true
	}
	raw, ref := lp.figures(1)
	// As measured: latencies 100 200 300 500, 4 samples in 2 s, 600 ms of CPU.
	if want := (figures{p50: 250, p95: 470, sps: 2, cpuMs: 150, index: 1.5}); !near(raw, want) {
		t.Errorf("as measured: %+v, want %+v", raw, want)
	}
	// At reference speed: the client was busy for 0.4 of second 0, at double
	// the price, so a fifth of every interval in it is the host's: the second
	// reads 0.8 s, its requests 240 and 400 ms, its CPU 200 ms. Second 1 is
	// as measured. Latencies 100 200 240 400, 4 samples in 1.8 s, 400 ms of CPU.
	if want := (figures{p50: 220, p95: 376, sps: 4 / 1.8, cpuMs: 100, index: 1.5}); !near(ref, want) {
		t.Errorf("at reference speed: %+v, want %+v", ref, want)
	}
	// Two clients share the same CPU time: each was busy for 0.2 of second 0.
	if _, two := lp.figures(2); math.Abs(two.sps-4/1.9) > 1e-9 || math.Abs(two.p50-(200+270)/2.0) > 1e-9 {
		t.Errorf("two clients: %+v, want 4/1.9 samples/s and p50 235", two)
	}
}

func TestRefKernelReadsAnIndex(t *testing.T) {
	k := newRefKernel()
	if h := k.indexOf(5); h <= 0.05 || h > 50 || math.IsNaN(h) {
		t.Errorf("host speed index %v is not a plausible ratio", h)
	}
	m := startHostMeter(time.Now())
	time.Sleep(250 * time.Millisecond)
	for b, h := range m.perBin(2 * time.Second) {
		if h <= 0 || math.IsNaN(h) {
			t.Errorf("bin %d: index %v", b, h)
		}
	}
}

// The expected values are statistics.quantiles(xs, n=4) from Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{4.43, 4.45, 4.41, 4.50, 4.47}, [3]float64{4.42, 4.45, 4.485}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		for i, got := range [3]float64{q1, q2, q3} {
			if math.Abs(got-tc.want[i]) > 1e-9 {
				t.Errorf("quartiles(%v)[%d] = %v, want %v", tc.xs, i, got, tc.want[i])
			}
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-9 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one run = %v, want 0", got)
	}
}

func TestSelfTime(t *testing.T) {
	if s, clamped := selfTime(10, 3, 4); s != 3 || clamped {
		t.Errorf("selfTime(10,3,4) = %v,%v, want 3,false", s, clamped)
	}
	if s, clamped := selfTime(5, 3, 4); s != 0 || !clamped {
		t.Errorf("selfTime(5,3,4) = %v,%v, want 0,true", s, clamped)
	}
	if s, clamped := selfTime(5); s != 5 || clamped {
		t.Errorf("selfTime(5) = %v,%v, want 5,false", s, clamped)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "lat", Better: "lower", Bound: 0.08}
	higher := metricDef{Name: "tput", Better: "higher", Bound: 0.08}
	steady := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b []float64
		want verdict
	}{
		{"same", lower, steady, steady, verdictOK},
		{"slower within bound", lower, steady, []float64{105, 106, 104, 105, 105}, verdictOK},
		{"slower beyond bound", lower, steady, []float64{110, 111, 109, 110, 110}, verdictWorse},
		{"faster", lower, steady, []float64{50, 51, 49, 50, 50}, verdictOK},
		{"throughput fell", higher, steady, []float64{90, 91, 89, 90, 90}, verdictWorse},
		{"throughput rose", higher, steady, []float64{120, 121, 119, 120, 120}, verdictOK},
		{"noisy", lower, []float64{80, 100, 120, 90, 110}, steady, verdictUnresolved},
		{"noisy but every run better", lower, []float64{80, 100, 120, 90, 110}, []float64{50, 51, 49, 50, 50}, verdictOK},
		{"single runs", lower, []float64{100}, []float64{120}, verdictWorse},
	} {
		if _, _, got := judge(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesAreWellFormed(t *testing.T) {
	seen := make(map[string]bool)
	check := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is malformed", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.name)
		if w.clients < 1 || w.clients > 2 {
			t.Errorf("%s: %d clients, want 1 or 2", w.name, w.clients)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is malformed", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
}

// TestBenchmarkJSONAgrees holds the runner and the driver's contract file to
// each other: every workload and metric in one is in the other, with the
// same unit, direction and bound.
func TestBenchmarkJSONAgrees(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(spec.Paths, []string{"bench"}) {
		t.Errorf("command %v / paths %v", spec.Command, spec.Paths)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, runner default %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in JSON, %d in the runner", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: JSON %q, runner %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	agree := func(kind string, js []jsonMetric, defs []metricDef, bounded bool) {
		if len(js) != len(defs) {
			t.Fatalf("%s: %d metrics in JSON, %d in the runner", kind, len(js), len(defs))
		}
		for i, j := range js {
			d := defs[i]
			if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better {
				t.Errorf("%s %d: JSON %+v, runner %+v", kind, i, j, d)
			}
			if bounded != (j.Bound != nil) || (bounded && *j.Bound != d.Bound) {
				t.Errorf("%s %s: bound disagrees with the runner's %v", kind, j.Name, d.Bound)
			}
		}
	}
	agree("end_to_end", spec.EndToEnd, endToEnd, true)
	agree("per_layer", spec.PerLayer, perLayer, false)

	var setup *metricDef
	for i, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = &endToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatal("setup_s (s, lower) is missing")
	}
	for _, d := range endToEnd {
		if d.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", d.Name)
		}
	}
}

// TestQuickRun is the smoke run that keeps the benchmark from rotting between
// issues: every workload, both runs, in-process with 1 s windows.
func TestQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a second each")
	}
	opts := options{seed: 3, window: time.Second, coldStarts: 3, passes: 20, outDir: t.TempDir(), log: io.Discard}
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			res, err := measure(w, opts, traced)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (traced %v): correct %v, %d of %d failed", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s (traced %v): %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: metric %s = %+v (present %v)", w.name, d.Name, m, ok)
				}
			}
			if !traced {
				for _, d := range endToEnd {
					if res.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, res.Metrics[d.Name].Value)
					}
				}
			}
		}
		if _, err := os.Stat(opts.outDir + "/trace-" + w.name + ".json"); err != nil {
			t.Errorf("%s: no span file: %v", w.name, err)
		}
	}
}

// TestOracleRejectsFlippedLabels serves real traffic and checks it against
// reference labels that are each off by one class: every sample must fail.
func TestOracleRejectsFlippedLabels(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a daemon")
	}
	w, err := workloadByName("tiny_rpc")
	if err != nil {
		t.Fatal(err)
	}
	r, err := prepare(w, options{seed: 5, window: time.Second, coldStarts: 1, outDir: t.TempDir(), log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer r.cleanup()
	st, err := w.start(r.reg, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.stop()
	c := newClient(st.url, w.clients)
	defer c.close()

	if ps := w.runPhase(c, r.tr, r.refs, 100*time.Millisecond, nil); ps.failed != 0 || ps.attempted == 0 {
		t.Fatalf("true oracle: %d of %d failed", ps.failed, ps.attempted)
	}
	flipped := make(oracle)
	for model, perSample := range r.refs {
		for _, labels := range perSample {
			flipped[model] = append(flipped[model], []int{(labels[0] + 1) % classes})
		}
	}
	if ps := w.runPhase(c, r.tr, flipped, 100*time.Millisecond, nil); ps.failed != ps.attempted || ps.attempted == 0 {
		t.Fatalf("flipped oracle: %d of %d failed, want all", ps.failed, ps.attempted)
	}
}
