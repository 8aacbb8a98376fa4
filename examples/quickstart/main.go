// Quickstart: the full TBNet flow through the option-based API — run the
// train→transfer→prune→finalize pipeline, deploy to the simulated TrustZone
// device, and serve concurrent inference through a one-node fleet.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sync"

	"tbnet"
)

func main() {
	ctx := context.Background()

	// Steps 0–6 in one builder: train the victim, build the two-branch
	// substitution, transfer knowledge, prune, finalize with rollback.
	p, err := tbnet.NewPipeline(
		tbnet.WithArch("vgg"),
		tbnet.WithDataset("c10"),
		tbnet.WithSeed(1),
		tbnet.WithDatasetSize(160, 80),
		tbnet.WithEpochs(8, 6, 1),
		tbnet.WithPruning(0.20, 4),
		tbnet.WithProgress(func(phase tbnet.Phase, epoch int) {
			if epoch < 0 {
				fmt.Fprintf(os.Stderr, "phase %s done\n", phase)
			}
		}),
	)
	if err != nil {
		log.Fatal(err)
	}
	res, err := p.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("victim accuracy: %.2f%%\n", 100*res.VictimAcc)
	fmt.Printf("TBNet accuracy:  %.2f%% (%d pruning iterations)\n",
		100*res.TBAcc, res.PruneRes.Iterations)

	// Deploy: M_R in the REE, M_T inside the enclave, one-way channel. The
	// hardware backend comes from the named device registry — swap "rpi3"
	// for "sgx-desktop", "sev-server", or "jetson-tz" (or a backend you
	// registered with tbnet.RegisterDevice) to re-price the deployment.
	device, err := tbnet.DeviceByName("rpi3")
	if err != nil {
		log.Fatal(err)
	}
	dep, err := tbnet.Deploy(res.TB, device, []int{1, 3, 16, 16})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployed on %s: %.2f KiB secure memory reserved\n",
		device.Name(), float64(dep.SecureBytes)/1024)

	// Serve: a one-node fleet, a pool of replicated enclave sessions with
	// micro-batching on the deployment's device.
	srv, err := tbnet.NewFleet(dep, tbnet.WithDevice(device, 4), tbnet.WithMaxBatch(8))
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	// Classify the test split through the fleet, many requests in flight.
	test := res.Test
	singles := test.Batches(1, nil)
	var wg sync.WaitGroup
	var mu sync.Mutex
	correct, failed := 0, 0
	for i := 0; i < test.Len(); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			label, err := srv.Infer(ctx, singles[i].X)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				failed++
			} else if label == test.Y[i] {
				correct++
			}
		}(i)
	}
	wg.Wait()
	if failed > 0 {
		log.Fatalf("%d requests failed", failed)
	}
	st := srv.Stats().PerDevice[0].Serve
	fmt.Printf("served %d requests on %s: %d/%d correct\n",
		st.Requests, st.Device, correct, test.Len())
	fmt.Printf("  mean batch %.2f, modeled p50 %.4fs p99 %.4fs, %.0f req/s modeled, peak secure %.2f KiB\n",
		st.MeanBatch, st.P50Latency, st.P99Latency, st.ModeledThroughput,
		float64(st.PeakSecureBytes)/1024)

	// What the attacker gets: M_R alone, with the stale victim head.
	atk := tbnet.AttackDirectUse(dep.ExtractedMR(), test, 16)
	fmt.Printf("attacker's direct-use accuracy from stolen M_R: %.2f%% (gap %.2f pts)\n",
		100*atk, 100*(res.TBAcc-atk))
}
