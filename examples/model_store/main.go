// Model store: the vendor-ships-artifacts deployment story end to end —
// persist a finalized deployment into a named registry, bring it back up
// bit-identically on another process's behalf, serve it, and hot-swap in a
// retrained candidate without dropping a request.
//
// Run with: go run ./examples/model_store
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sync"
	"sync/atomic"

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

func main() {
	dir, err := os.MkdirTemp("", "tbnet-store-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// The vendor side: train, finalize, deploy — then persist the artifact
	// under a name. The registry records a SHA-256 content hash; a tampered
	// or truncated artifact fails to load instead of serving wrong weights.
	prod, err := buildDeployment(1)
	if err != nil {
		log.Fatal(err)
	}
	reg, err := tbnet.OpenRegistry(dir)
	if err != nil {
		log.Fatal(err)
	}
	entry, err := reg.Save("prod", prod)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("saved %q: device=%s shape=%v sha256=%s…\n",
		entry.Name, entry.Device, entry.SampleShape, entry.SHA256[:12])

	// The device side: no pipeline, no training — just the store. The
	// restored session is bit-identical to the one that was saved.
	restored, err := reg.Load("prod")
	if err != nil {
		log.Fatal(err)
	}
	x := tbnet.NewTensor(1, 3, 16, 16)
	tbnet.NewRNG(42).FillNormal(x, 0, 1)
	want, _ := prod.Infer(x)
	got, err := restored.Infer(x)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restored deployment agrees with original: %v (label %d)\n",
		want[0] == got[0], got[0])

	// Serve the restored model: a one-node fleet on its own device.
	srv, err := tbnet.NewFleet(restored, tbnet.WithDevice(restored.Device, 2), tbnet.WithMaxBatch(4))
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	// Hot swap: a retrained candidate replaces the serving replicas while
	// clients keep hammering — the new pool is warmed first, the old one
	// drains, and not a single in-flight or queued request is dropped.
	candidate, err := buildDeployment(2)
	if err != nil {
		log.Fatal(err)
	}
	var stop atomic.Bool
	var served, failed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, err := srv.Infer(context.Background(), x); err != nil {
					failed.Add(1)
				} else {
					served.Add(1)
				}
			}
		}()
	}
	if err := srv.SwapModel(tbnet.DefaultModel, candidate); err != nil {
		log.Fatal(err)
	}
	stop.Store(true)
	wg.Wait()
	fmt.Printf("hot swap under fire: %d requests served, %d failed\n",
		served.Load(), failed.Load())

	after, err := srv.Infer(context.Background(), x)
	if err != nil {
		log.Fatal(err)
	}
	wantNew, _ := candidate.Infer(x)
	fmt.Printf("post-swap output matches the new model: %v\n", after == wantNew[0])

	st := srv.Stats().PerDevice[0].Serve
	fmt.Printf("server: %d requests, %d swap(s), peak secure memory %d bytes\n",
		st.Requests, st.Swaps, st.PeakSecureBytes)
}
