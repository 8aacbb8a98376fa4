package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"tbnet"
	"tbnet/internal/cliconf/cliconftest"
)

// startTestDaemon launches run() in-process with -demo and returns the base
// URL and the exit-code channel. The addr file doubles as the readiness
// signal.
func startTestDaemon(t *testing.T, extraArgs ...string) (string, chan int) {
	t.Helper()
	return startTestDaemonTo(t, io.Discard, extraArgs...)
}

// startTestDaemonTo is startTestDaemon with the daemon's stderr captured.
func startTestDaemonTo(t *testing.T, stderr io.Writer, extraArgs ...string) (string, chan int) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	args := append([]string{
		"-demo", "-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-devices", "rpi3:1", "-drain-timeout", "20s",
	}, extraArgs...)
	code := make(chan int, 1)
	go func() { code <- run(args, stderr) }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			return "http://" + string(b), code
		}
		select {
		case c := <-code:
			t.Fatalf("daemon exited early with code %d", c)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never published its address")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// demoInput synthesizes a valid /v1/infer body for the demo model's
// [1,3,16,16] sample shape.
func demoInput(seed int) []byte {
	input := make([]float64, 3*16*16)
	for i := range input {
		input[i] = float64((i*seed)%13)/13 - 0.5
	}
	body, _ := json.Marshal(map[string]any{"input": input})
	return body
}

// demoBatch synthesizes a valid /v1/infer/batch body of n demo samples.
func demoBatch(n, seed int) []byte {
	inputs := make([][]float64, n)
	for i := range inputs {
		inputs[i] = make([]float64, 3*16*16)
		for j := range inputs[i] {
			inputs[i][j] = float64((j*(seed+i))%13)/13 - 0.5
		}
	}
	body, _ := json.Marshal(map[string]any{"inputs": inputs})
	return body
}

// TestDaemonSIGTERMDrainsCleanly is the daemon-level acceptance check: a
// SIGTERM while batch streams are open lets every one of them run to its
// last line (no torn connections, no shed samples), then run() exits 0. The
// signal is sent once every client has read its first streamed line — its
// request is then inside a handler, not in the listener's accept queue,
// which a closing listener resets — so nothing here depends on timing.
func TestDaemonSIGTERMDrainsCleanly(t *testing.T) {
	base, code := startTestDaemon(t)
	// One connection per request: a pooled client can leave a dialed but
	// never-used connection behind, which net/http's Shutdown waits five
	// seconds on before closing.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

	// Sanity: the daemon serves before the signal.
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d", resp.StatusCode)
	}

	// 3 streams × 8 samples stay under the one-worker fleet's in-flight cap
	// of 32, so no sample is shed.
	const clients, perBatch = 3, 8
	results := make([]error, clients)
	var streaming, wg sync.WaitGroup
	streaming.Add(clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opened := false
			defer func() {
				if !opened {
					streaming.Done()
				}
			}()
			resp, err := client.Post(base+"/v1/infer/batch", "application/json",
				bytes.NewReader(demoBatch(perBatch, 1+i*perBatch)))
			if err != nil {
				results[i] = err
				return
			}
			defer resp.Body.Close()
			lines := 0
			for dec := json.NewDecoder(resp.Body); ; lines++ {
				var line struct {
					Error string `json:"error"`
				}
				if err := dec.Decode(&line); err == io.EOF {
					break
				} else if err != nil {
					results[i] = fmt.Errorf("after %d lines: %w", lines, err)
					return
				}
				if line.Error != "" {
					results[i] = fmt.Errorf("line %d: %s", lines, line.Error)
					return
				}
				if !opened {
					opened = true
					streaming.Done()
				}
			}
			if lines != perBatch {
				results[i] = fmt.Errorf("stream ended after %d of %d lines", lines, perBatch)
			}
		}(i)
	}
	streaming.Wait()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	for i, err := range results {
		if err != nil {
			t.Errorf("stream %d dropped across SIGTERM drain: %v", i, err)
		}
	}
	select {
	case c := <-code:
		if c != 0 {
			t.Fatalf("daemon exit code = %d, want 0", c)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never exited after SIGTERM")
	}
}

// lockedBuffer is a bytes.Buffer the daemon's goroutines may write while the
// test reads.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestDaemonLogsBatchingStatus: the startup log carries the batching
// layer's status line, so "can a lone request be held back?" is a grep, and
// the kernel layer's beside it, so "is the vector path on?" is one too.
func TestDaemonLogsBatchingStatus(t *testing.T) {
	var stderr lockedBuffer
	_, code := startTestDaemonTo(t, &stderr)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case c := <-code:
		if c != 0 {
			t.Fatalf("daemon exit code = %d, want 0", c)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never exited after SIGTERM")
	}
	if want := "batching: max_batch=8 linger=0s (work-conserving)"; !strings.Contains(stderr.String(), want) {
		t.Fatalf("startup log lacks %q:\n%s", want, stderr.String())
	}
	if want := regexp.MustCompile(`kernels: f32=\S+ f32conv=(packed-from-image|im2col) f32dw=(avx-3x3|scalar) int8=(avx512vnni-4x4|avx2-dot4|scalar-dot4) parallel_above_macs=\d+ workers=\d+`); !want.MatchString(stderr.String()) {
		t.Fatalf("startup log lacks %q:\n%s", want, stderr.String())
	}
}

// TestDaemonServesDemoModel: the demo fleet answers inference and lists its
// model with the sample shape a client needs.
func TestDaemonServesDemoModel(t *testing.T) {
	base, code := startTestDaemon(t)
	resp, err := http.Post(base+"/v1/infer", "application/json", bytes.NewReader(demoInput(3)))
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Label int    `json:"label"`
		Model string `json:"model"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || out.Model != "default" {
		t.Fatalf("infer = %d %+v", resp.StatusCode, out)
	}
	if out.Label < 0 || out.Label > 3 {
		t.Fatalf("demo label %d out of class range", out.Label)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(b), "tbnet_fleet_requests_total") {
		t.Fatalf("metrics scrape lacks fleet counters:\n%s", b)
	}
	if !strings.Contains(string(b), "tbnet_build_info{") {
		t.Fatalf("metrics scrape lacks build info:\n%s", b)
	}

	// Tracing is on by default: the served request's timeline is readable on
	// the debug surface, with the fleet stages filled in.
	resp, err = http.Get(base + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Returned int `json:"returned"`
		Spans    []struct {
			ID     string  `json:"request_id"`
			Model  string  `json:"model"`
			WallMs float64 `json:"wall_ms"`
			Stages []struct {
				Stage string `json:"stage"`
			} `json:"stages"`
		} `json:"spans"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&dump)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || derr != nil {
		t.Fatalf("/debug/trace = %d (%v)", resp.StatusCode, derr)
	}
	if dump.Returned < 1 || len(dump.Spans) != dump.Returned {
		t.Fatalf("trace dump = %+v", dump)
	}
	sp := dump.Spans[0]
	if sp.ID == "" || sp.Model != "default" || sp.WallMs <= 0 || len(sp.Stages) == 0 {
		t.Fatalf("span lacks identity or breakdown: %+v", sp)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if c := <-code; c != 0 {
		t.Fatalf("exit code = %d", c)
	}
}

// TestDaemonAutoscaleMetrics: a daemon started with -policy ewma -autoscale
// reports the live controller and the learned latency estimates on /metrics.
func TestDaemonAutoscaleMetrics(t *testing.T) {
	base, code := startTestDaemon(t,
		"-policy", "ewma", "-autoscale", "-autoscale-min", "1",
		"-autoscale-max", "4", "-autoscale-interval", "25ms")

	resp, err := http.Post(base+"/v1/infer", "application/json", bytes.NewReader(demoInput(7)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/infer = %d", resp.StatusCode)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(b)
	for _, want := range []string{
		"tbnet_autoscale_running 1",
		"tbnet_autoscale_workers_max 4",
		"tbnet_autoscale_ticks_total",
		"tbnet_ewma_latency_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics scrape lacks %q:\n%s", want, body)
		}
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if c := <-code; c != 0 {
		t.Fatalf("exit code = %d", c)
	}
}

// TestRunFlagValidation: every cheap misconfiguration fails fast with a
// usage error before any model is built or port bound.
func TestRunFlagValidation(t *testing.T) {
	cases := [][]string{
		{},                                             // nothing to serve
		{"-demo", "-devices", "warp-core:2"},           // unknown device
		{"-demo", "-devices", "rpi3:0"},                // bad worker count
		{"-demo", "-policy", "psychic"},                // unknown policy
		{"-demo", "-api-keys", "keyonly"},              // malformed key spec
		{"-demo", "-autoscale", "-autoscale-min", "0"}, // floor below 1
		{"-demo", "-autoscale", "-autoscale-min", "4", "-autoscale-max", "2"}, // inverted bounds
		{"-demo", "-autoscale", "-autoscale-interval", "0s"},                  // dead control loop
		{"-demo", "-trace-ring", "-1"},                                        // negative span ring
	}
	for i, args := range cases {
		if code := run(args, io.Discard); code != 2 {
			t.Errorf("case %d %v: exit = %d, want 2", i, args, code)
		}
	}
	// A registry name without -registry is caught at model-load time.
	if code := run([]string{"-models", "x"}, io.Discard); code == 0 {
		t.Error("bare registry name without -registry accepted")
	}
}

// TestFlagSurface pins the daemon's flag names and defaults, and checks it
// rejects the shared fleet flags' bad values the way `tbnet fleet` and
// `tbnet scenario` do (negative -deadline and -max-inflight included).
func TestFlagSurface(t *testing.T) {
	run := func(args ...string) (int, string) {
		var stderr bytes.Buffer
		code := run(append(args, "-demo"), &stderr)
		return code, stderr.String()
	}
	_, help := run("-h")
	cliconftest.CheckSurface(t, help, map[string]string{
		"addr": `"127.0.0.1:0"`, "addr-file": ``, "api-keys": ``, "burst": ``, "demo": ``,
		"drain-timeout": `30s`, "idle-ttl": ``, "models": ``, "obfuscate": ``, "pprof": ``, "rate": ``,
		"registry": ``, "retry-after": `1s`, "seed": `1`, "slow-log": `250ms`, "trace-ring": `4096`, "version": ``,
		"devices": `"rpi3:2,sgx-desktop:2"`, "policy": `"cost-aware"`,
		"deadline": ``, "max-inflight": ``, "precision": `"f32"`,
		"autoscale": ``, "autoscale-min": `1`, "autoscale-max": `8`, "autoscale-interval": `250ms`,
	})
	cliconftest.CheckRejections(t, run)
}

// TestVersionFlag: -version prints the release and toolchain versions and
// exits 0 without binding a port or building a model.
func TestVersionFlag(t *testing.T) {
	var buf bytes.Buffer
	if code := run([]string{"-version"}, &buf); code != 0 {
		t.Fatalf("exit = %d, want 0: %s", code, buf.String())
	}
	if !strings.Contains(buf.String(), "tbnetd "+tbnet.Version) || !strings.Contains(buf.String(), "go") {
		t.Fatalf("-version output = %q", buf.String())
	}
}

// TestParseAPIKeys: the key=tenant list round-trips and rejects malformed
// entries.
func TestParseAPIKeys(t *testing.T) {
	keys, err := parseAPIKeys("a=alpha, b=beta")
	if err != nil {
		t.Fatal(err)
	}
	if keys["a"] != "alpha" || keys["b"] != "beta" || len(keys) != 2 {
		t.Fatalf("keys = %v", keys)
	}
	if got, err := parseAPIKeys(""); got != nil || err != nil {
		t.Fatalf("empty list = %v, %v", got, err)
	}
	for _, bad := range []string{"nokey", "=tenant", "key="} {
		if _, err := parseAPIKeys(bad); err == nil {
			t.Errorf("parseAPIKeys(%q) accepted", bad)
		}
	}
}
