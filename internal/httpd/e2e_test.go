package httpd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tbnet/internal/core"
	"tbnet/internal/fleet"
	"tbnet/internal/scenario"
	"tbnet/internal/serial"
	"tbnet/internal/serve"
	"tbnet/internal/tee"
	"tbnet/internal/tensor"
)

// startDaemon serves s on a loopback listener and returns its base URL.
func startDaemon(t testing.TB, s *Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return "http://" + l.Addr().String()
}

// promSampleRe matches one Prometheus text-exposition sample line (after
// any exemplar trailer has been split off).
var promSampleRe = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (-?([0-9]+(\.[0-9]+)?|\.[0-9]+)([eE][+-]?[0-9]+)?|NaN|[+-]Inf)$`)

// promExemplarRe matches the OpenMetrics-style exemplar trailer the daemon
// attaches to histogram bucket samples: a label set, the exemplar value,
// and an optional timestamp.
var promExemplarRe = regexp.MustCompile(
	`^\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\} -?([0-9]+(\.[0-9]+)?|\.[0-9]+)([eE][+-]?[0-9]+)?( [0-9]+(\.[0-9]+)?)?$`)

// promLabelRe extracts the individual key="value" pairs of a label set.
var promLabelRe = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="((?:\\.|[^"\\])*)"`)

// histSeries accumulates one labeled histogram series across its _bucket,
// _sum, and _count samples for the structural checks.
type histSeries struct {
	les      []float64
	bucketNs []float64
	count    float64
	sum      float64
	hasCount bool
	hasSum   bool
}

// parsePromText validates the whole scrape against the text exposition
// format — every sample line parses, every family has HELP and TYPE emitted
// before its first sample, and every histogram family is structurally sound:
// le buckets in strictly ascending order, cumulative counts monotone, the
// +Inf bucket equal to _count, exemplar trailers only on bucket samples and
// syntactically valid. It returns family → sample-line count (histogram
// _bucket/_sum/_count samples all count toward the base family name).
func parsePromText(t testing.TB, body string) map[string]int {
	t.Helper()
	families := make(map[string]int)
	typed := make(map[string]string)
	hists := make(map[string]*histSeries)
	for ln, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "), strings.HasPrefix(line, "# TYPE "):
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 {
				t.Fatalf("line %d: malformed comment %q", ln+1, line)
			}
			if parts[1] == "TYPE" {
				if parts[3] != "counter" && parts[3] != "gauge" && parts[3] != "histogram" {
					t.Fatalf("line %d: bad metric type %q", ln+1, parts[3])
				}
				typed[parts[2]] = parts[3]
			}
		case strings.TrimSpace(line) == "":
			t.Fatalf("line %d: blank line in exposition", ln+1)
		default:
			sample, exemplar, exemplared := strings.Cut(line, " # ")
			if exemplared && !promExemplarRe.MatchString(exemplar) {
				t.Fatalf("line %d: invalid exemplar %q", ln+1, exemplar)
			}
			if !promSampleRe.MatchString(sample) {
				t.Fatalf("line %d: invalid sample %q", ln+1, sample)
			}
			name := sample
			if i := strings.IndexAny(sample, "{ "); i >= 0 {
				name = sample[:i]
			}
			family, suffix := name, ""
			for _, sfx := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(name, sfx); base != name && typed[base] == "histogram" {
					family, suffix = base, sfx
					break
				}
			}
			if typed[family] == "" {
				t.Fatalf("line %d: sample %q before its # TYPE header", ln+1, name)
			}
			if typed[family] == "histogram" && suffix == "" {
				t.Fatalf("line %d: bare sample %q of histogram family", ln+1, name)
			}
			if exemplared && suffix != "_bucket" {
				t.Fatalf("line %d: exemplar on non-bucket sample %q", ln+1, name)
			}
			families[family]++
			if suffix == "" {
				continue
			}
			// Accumulate the series (key: family + labels minus le) for the
			// structural histogram checks after the scan.
			rest := strings.TrimPrefix(sample, name)
			value, err := strconv.ParseFloat(rest[strings.LastIndex(rest, " ")+1:], 64)
			if err != nil {
				t.Fatalf("line %d: bad sample value in %q: %v", ln+1, sample, err)
			}
			le, key := "", family
			for _, m := range promLabelRe.FindAllStringSubmatch(rest, -1) {
				if m[1] == "le" {
					le = m[2]
					continue
				}
				key += "," + m[1] + "=" + m[2]
			}
			hs := hists[key]
			if hs == nil {
				hs = &histSeries{}
				hists[key] = hs
			}
			switch suffix {
			case "_bucket":
				if le == "" {
					t.Fatalf("line %d: bucket sample without le label: %q", ln+1, sample)
				}
				bound := math.Inf(1)
				if le != "+Inf" {
					if bound, err = strconv.ParseFloat(le, 64); err != nil {
						t.Fatalf("line %d: bad le %q", ln+1, le)
					}
				}
				hs.les = append(hs.les, bound)
				hs.bucketNs = append(hs.bucketNs, value)
			case "_sum":
				hs.sum, hs.hasSum = value, true
			case "_count":
				hs.count, hs.hasCount = value, true
			}
		}
	}
	for key, hs := range hists {
		if !hs.hasSum || !hs.hasCount {
			t.Fatalf("histogram series %s lacks _sum/_count", key)
		}
		if len(hs.les) == 0 || !math.IsInf(hs.les[len(hs.les)-1], 1) {
			t.Fatalf("histogram series %s does not close with le=\"+Inf\": %v", key, hs.les)
		}
		for i := 1; i < len(hs.les); i++ {
			if hs.les[i] <= hs.les[i-1] {
				t.Fatalf("histogram series %s: le bounds not ascending at %d: %v", key, i, hs.les)
			}
			if hs.bucketNs[i] < hs.bucketNs[i-1] {
				t.Fatalf("histogram series %s: cumulative counts decrease at le=%g: %v", key, hs.les[i], hs.bucketNs)
			}
		}
		if inf := hs.bucketNs[len(hs.bucketNs)-1]; inf != hs.count {
			t.Fatalf("histogram series %s: +Inf bucket %g != _count %g", key, inf, hs.count)
		}
	}
	return families
}

// artifactBytes serializes a fresh two-branch model built from seed.
func artifactBytes(t testing.TB, seed uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := serial.SaveDeployment(&buf, &serial.Artifact{
		TB: testTwoBranch(seed), Device: "rpi3", SampleShape: []int{1, 3, 16, 16},
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestE2EScenarioSwapMetrics is the full-stack acceptance run: a phased
// workload drives the daemon through real sockets via the scenario client
// while a hot swap lands mid-run; afterwards the served outputs are
// bit-identical to the incoming model, and /metrics parses as valid
// Prometheus text exposition reflecting the traffic.
func TestE2EScenarioSwapMetrics(t *testing.T) {
	s, _ := testServer(t, nil, nil)
	base := startDaemon(t, s)

	tgt, err := scenario.NewHTTPTarget(base)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := tgt.Models(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(remote) != 1 || remote[0].Name != fleet.DefaultModel || !remote[0].Default {
		t.Fatalf("remote models = %+v", remote)
	}

	// Mid-scenario hot swap: fires while the burst phase is in flight.
	art := artifactBytes(t, 99)
	ref2, err := core.Deploy(testTwoBranch(99), tee.RaspberryPi3(), []int{1, 3, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	swapDone := make(chan error, 1)
	go func() {
		time.Sleep(150 * time.Millisecond)
		resp, err := http.Post(base+"/v1/models/"+fleet.DefaultModel+"/swap",
			"application/octet-stream", bytes.NewReader(art))
		if err == nil {
			if resp.StatusCode != http.StatusOK {
				b, _ := io.ReadAll(resp.Body)
				err = fmt.Errorf("swap = %d: %s", resp.StatusCode, b)
			}
			resp.Body.Close()
		}
		swapDone <- err
	}()

	phases := []scenario.Phase{
		{Name: "warm", Pattern: scenario.Uniform, Rate: 60, Duration: 150 * time.Millisecond},
		{Name: "burst", Pattern: scenario.Burst, Rate: 60, Duration: 400 * time.Millisecond,
			PeakRate: 240, Period: 150 * time.Millisecond},
	}
	pool := make([]*tensor.Tensor, 64)
	for i := range pool {
		pool[i] = randSample(uint64(1000 + i))
	}
	res, err := scenario.Run(context.Background(), tgt,
		scenario.Spec{Name: "e2e", Seed: 7, Phases: phases},
		func(i int) *tensor.Tensor { return pool[i%len(pool)] })
	if err != nil {
		t.Fatal(err)
	}
	if err := <-swapDone; err != nil {
		t.Fatalf("mid-scenario swap: %v", err)
	}
	if res.Served == 0 {
		t.Fatalf("no requests served over the socket: %+v", res)
	}
	if res.Failed != 0 {
		t.Fatalf("swap dropped traffic: %d failed of %d offered", res.Failed, res.Offered)
	}

	// Post-swap answers must be bit-identical to direct inference on an
	// identically-built copy of the incoming model.
	for i := 0; i < 6; i++ {
		x := randSample(uint64(5000 + i))
		labels, err := ref2.Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tgt.InferModel(context.Background(), fleet.DefaultModel, x)
		if err != nil {
			t.Fatal(err)
		}
		if got != labels[0] {
			t.Fatalf("post-swap sample %d: socket label %d != incoming model's %d", i, got, labels[0])
		}
	}

	// The scrape parses as valid exposition and reflects the traffic.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type = %q", ct)
	}
	families := parsePromText(t, string(body))
	for _, want := range []string{
		"tbnet_fleet_requests_total", "tbnet_fleet_shed_total", "tbnet_fleet_in_flight",
		"tbnet_fleet_p99_latency_seconds", "tbnet_model_requests_total",
		"tbnet_model_swaps_total", "tbnet_device_requests_total",
		"tbnet_device_workers", "tbnet_fleet_worker_seconds_total",
		"tbnet_http_requests_total", "tbnet_http_draining",
		"tbnet_queue_wait_seconds", "tbnet_batch_size",
	} {
		if families[want] == 0 {
			t.Fatalf("scrape lacks family %s; got %v", want, families)
		}
	}
	// The two batching histograms are folded from the same Stats pass as the
	// counters: every served sample waited once, and the runs' sizes add up
	// to the samples served (nothing failed here).
	sample := func(series string) float64 {
		t.Helper()
		_, rest, ok := strings.Cut(string(body), "\n"+series+" ")
		if !ok {
			t.Fatalf("scrape lacks series %s", series)
		}
		line, _, _ := strings.Cut(rest, "\n")
		v, err := strconv.ParseFloat(line, 64)
		if err != nil {
			t.Fatalf("series %s: %v", series, err)
		}
		return v
	}
	served := sample(`tbnet_model_requests_total{model="default"}`)
	if waits := sample(`tbnet_queue_wait_seconds_count{model="default"}`); waits != served {
		t.Errorf("queue-wait observations = %g, want one per served sample (%g)", waits, served)
	}
	if sizes := sample(`tbnet_batch_size_sum{model="default"}`); sizes != served {
		t.Errorf("batch sizes sum to %g samples, want %g", sizes, served)
	}
	if runs := sample(`tbnet_batch_size_count{model="default"}`); runs < 1 || runs > served {
		t.Errorf("batch-size observations = %g, want between 1 and %g runs", runs, served)
	}
	// A run holds at least one sample: the family starts at le="1".
	sample(`tbnet_batch_size_bucket{model="default",le="1"}`)
	if strings.Contains(string(body), `tbnet_batch_size_bucket{model="default",le="0.`) {
		t.Error("tbnet_batch_size carries buckets under one sample")
	}
	if !strings.Contains(string(body), `tbnet_model_swaps_total{model="default"} 1`) {
		t.Fatalf("swap not reflected in scrape:\n%s", body)
	}
}

// TestE2EOverloadRetryAfter: shed and rate-limited answers carry the right
// status and a Retry-After hint over the real socket — what a well-behaved
// client needs to back off.
func TestE2EOverloadRetryAfter(t *testing.T) {
	// A 1ns fleet deadline sheds every request deterministically.
	s, _ := testServer(t, func(c *fleet.Config) { c.Deadline = time.Nanosecond },
		func(c *Config) { c.RetryAfter = 3 * time.Second })
	base := startDaemon(t, s)
	body := inferBody(t, "", randSample(1))
	resp, err := http.Post(base+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("shed over socket = %d, want 503: %s", resp.StatusCode, b)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("503 Retry-After = %q, want integer >= 1", resp.Header.Get("Retry-After"))
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Status != http.StatusServiceUnavailable {
		t.Fatalf("503 body = %+v (%v)", eb, err)
	}

	// A one-token bucket answers the second request 429 with the hint.
	s2, _ := testServer(t, nil, func(c *Config) {
		c.RateLimit = RateLimit{RPS: 0.0001, Burst: 1}
		c.RetryAfter = 2 * time.Second
	})
	base2 := startDaemon(t, s2)
	first, err := http.Post(base2+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	first.Body.Close()
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first request = %d, want 200", first.StatusCode)
	}
	second, err := http.Post(base2+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	second.Body.Close()
	if second.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request = %d, want 429", second.StatusCode)
	}
	if ra := second.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("429 Retry-After = %q, want \"2\"", ra)
	}
}

// gateTap parks every protocol run until release is closed, so a test can
// hold a known set of requests in flight.
type gateTap struct{ release chan struct{} }

func (g gateTap) TapRun(string, tee.Device, string, int, []tee.Event) float64 {
	<-g.release
	return 0
}

// waitFor polls cond until it holds, failing the test after ten seconds.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestE2EShutdownZeroDropped: requests in flight when Shutdown begins all
// complete with their label; nothing admitted is dropped mid-stream. The
// worker is gated, so all n requests are provably admitted — none still in
// the kernel's accept queue, which a closing listener resets — before
// Shutdown starts, and still unanswered when it does.
func TestE2EShutdownZeroDropped(t *testing.T) {
	gate := gateTap{release: make(chan struct{})}
	s, f := testServer(t, func(c *fleet.Config) { c.Tap = gate }, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(l) }()
	base := "http://" + l.Addr().String()

	const n = 24
	results := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := inferBody(t, "", randSample(uint64(7000+i)))
			resp, err := http.Post(base+"/v1/infer", "application/json", bytes.NewReader(body))
			if err != nil {
				results[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b, _ := io.ReadAll(resp.Body)
				results[i] = fmt.Errorf("status %d: %s", resp.StatusCode, b)
				return
			}
			var out inferResponse
			results[i] = json.NewDecoder(resp.Body).Decode(&out)
		}(i)
	}
	waitFor(t, "all requests admitted", func() bool { return f.Stats().InFlight == n })
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	shutDone := make(chan error, 1)
	go func() { shutDone <- s.Shutdown(ctx) }()
	waitFor(t, "Shutdown to begin", s.Draining)
	close(gate.release)
	if err := <-shutDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	wg.Wait()

	for i, err := range results {
		if err != nil {
			t.Errorf("request %d dropped across drain: %v", i, err)
		}
	}
	if !s.Draining() {
		t.Fatal("Draining() must report true after Shutdown")
	}
	if _, err := s.cfg.Fleet.Infer(context.Background(), randSample(1)); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("fleet after Shutdown err = %v, want ErrClosed", err)
	}
}
