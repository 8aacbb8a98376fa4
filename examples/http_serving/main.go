// HTTP serving: the fleet behind a real socket — boot an HTTPServer over a
// trained deployment, talk to it the way a remote tenant would (health
// probe, authenticated JSON inference, the Prometheus scrape), hot-swap a
// retrained candidate over the wire, and shut the daemon down gracefully.
//
// Run with: go run ./examples/http_serving
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"time"

	"tbnet"
)

// buildDeployment trains one small pipeline and deploys it on rpi3.
func buildDeployment(seed uint64) (*tbnet.Deployment, error) {
	p, err := tbnet.NewPipeline(
		tbnet.WithArch("tiny-vgg"),
		tbnet.WithSeed(seed),
		tbnet.WithDatasetSize(60, 30),
		tbnet.WithEpochs(2, 2, 1),
		tbnet.WithPruning(1.0, 1),
	)
	if err != nil {
		return nil, err
	}
	res, err := p.Run(context.Background())
	if err != nil {
		return nil, err
	}
	device, err := tbnet.DeviceByName("rpi3")
	if err != nil {
		return nil, err
	}
	return tbnet.Deploy(res.TB, device, []int{1, 3, 16, 16})
}

// post sends a JSON body with the given API key and returns status + body.
func post(client *http.Client, url, key string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func main() {
	// The serving side: a trained deployment, a fleet over it, and the
	// network daemon — auth on, so each API key maps to a tenant with its
	// own rate-limit bucket.
	prod, err := buildDeployment(1)
	if err != nil {
		log.Fatal(err)
	}
	f, err := tbnet.NewFleet(prod, tbnet.WithDevice(prod.Device, 2))
	if err != nil {
		log.Fatal(err)
	}
	srv, err := tbnet.NewHTTPServer(tbnet.HTTPConfig{
		Fleet:     f,
		APIKeys:   map[string]string{"alpha-key": "team-alpha"},
		RateLimit: tbnet.HTTPRateLimit{RPS: 500, Burst: 100},
		Logger:    slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		log.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		if err := srv.Serve(l); err != nil {
			log.Fatal(err)
		}
	}()
	base := "http://" + l.Addr().String()
	client := &http.Client{Timeout: 30 * time.Second}
	fmt.Printf("daemon listening on %s\n", base)

	// Liveness is auth-exempt: probes and scrapers need no credentials.
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("GET /healthz -> %d\n", resp.StatusCode)

	// Inference is not: a keyless request is refused before it touches the
	// fleet, then the same body answers with a key.
	x := tbnet.NewTensor(1, 3, 16, 16)
	tbnet.NewRNG(42).FillNormal(x, 0, 1)
	input := make([]float64, 0, 3*16*16)
	for _, v := range x.Data() {
		input = append(input, float64(v))
	}
	body, _ := json.Marshal(map[string]any{"input": input})
	status, _, err := post(client, base+"/v1/infer", "", body)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("POST /v1/infer without a key -> %d\n", status)
	status, out, err := post(client, base+"/v1/infer", "alpha-key", body)
	if err != nil {
		log.Fatal(err)
	}
	var answer struct {
		Label     int    `json:"label"`
		Model     string `json:"model"`
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal(out, &answer); err != nil {
		log.Fatal(err)
	}
	want, _ := prod.Infer(x)
	fmt.Printf("POST /v1/infer with a key   -> %d: label=%d model=%q (matches direct Infer: %v)\n",
		status, answer.Label, answer.Model, answer.Label == want[0])

	// Hot swap over the wire: serialize a retrained candidate and POST the
	// artifact bytes. The daemon deploys it, warms a new generation, and
	// every response after the 200 carries the new weights.
	candidate, err := buildDeployment(2)
	if err != nil {
		log.Fatal(err)
	}
	var artifact bytes.Buffer
	if err := tbnet.SaveDeployment(&artifact, candidate); err != nil {
		log.Fatal(err)
	}
	status, _, err = post(client, base+"/v1/models/default/swap", "alpha-key", artifact.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	status2, out, err := post(client, base+"/v1/infer", "alpha-key", body)
	if err != nil || status2 != http.StatusOK {
		log.Fatalf("post-swap infer: %d %v", status2, err)
	}
	if err := json.Unmarshal(out, &answer); err != nil {
		log.Fatal(err)
	}
	wantNew, _ := candidate.Infer(x)
	fmt.Printf("POST /v1/models/default/swap -> %d; post-swap label matches candidate: %v\n",
		status, answer.Label == wantNew[0])

	// The scrape: hand-rolled Prometheus exposition, no client library.
	resp, err = client.Get(base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	scrape, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, line := range strings.Split(string(scrape), "\n") {
		if strings.HasPrefix(line, "tbnet_fleet_requests_total") ||
			strings.HasPrefix(line, "tbnet_model_swaps_total") ||
			strings.HasPrefix(line, "tbnet_http_requests_total") {
			fmt.Printf("metrics: %s\n", line)
		}
	}

	// Graceful shutdown: in-flight requests finish, the fleet drains, and
	// Serve returns nil.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("daemon drained and stopped")
}
