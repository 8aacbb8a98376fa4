// Hardware efficiency: reproduces the paper's Sec. 4.3 comparison on one
// configuration — secure-memory usage (Fig. 3) and inference latency
// (Table 3) of TBNet against the baseline that executes the whole victim
// inside the TEE, on the simulated Raspberry Pi 3 device model — then sweeps
// the same finalized model across every registered hardware backend (each
// with its own REE/TEE overlap semantics), and finally shows what the
// serving layer adds on top: batched concurrent inference and its modeled
// throughput.
//
// Run with: go run ./examples/hw_efficiency
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"tbnet"
	"tbnet/internal/defense"
	"tbnet/internal/tee"
)

func main() {
	ctx := context.Background()
	p, err := tbnet.NewPipeline(
		tbnet.WithArch("vgg"),
		tbnet.WithDataset("c10"),
		tbnet.WithSeed(20),
		tbnet.WithDatasetSize(160, 80),
		tbnet.WithEpochs(6, 6, 1),
		tbnet.WithPruning(0.25, 4),
	)
	if err != nil {
		log.Fatal(err)
	}
	res, err := p.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}

	// Measurement mode: report footprints instead of rejecting them.
	device := tbnet.Unbounded(tbnet.RaspberryPi3())

	// Baseline: the entire victim inside the TEE.
	base, err := defense.FullTEE{}.Place(res.Victim, device, []int{1, 3, 16, 16})
	if err != nil {
		log.Fatal(err)
	}
	dep, err := tbnet.Deploy(res.TB, device, []int{1, 3, 16, 16})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("secure-memory usage (paper Fig. 3):")
	fmt.Printf("  baseline (victim fully in TEE): %8.2f KiB\n", float64(base.SecureBytes)/1024)
	fmt.Printf("  TBNet (only M_T in TEE):        %8.2f KiB\n", float64(dep.SecureBytes)/1024)
	fmt.Printf("  reduction:                      %8.2fx\n",
		float64(base.SecureBytes)/float64(dep.SecureBytes))

	// Latency over a handful of single-image inferences (paper Table 3).
	singles := res.Test.Batches(1, nil)
	const images = 8
	for i := 0; i < images; i++ {
		base.Infer(singles[i].X.Clone())
		if _, err := dep.Infer(singles[i].X); err != nil {
			log.Fatal(err)
		}
	}
	baseLat := base.Latency() / images
	tbLat := dep.Latency() / images
	fmt.Println("\nper-inference latency on the simulated RPi3 (paper Table 3):")
	fmt.Printf("  baseline: %.4fs\n", baseLat)
	fmt.Printf("  TBNet:    %.4fs  (%.2fx reduction)\n", tbLat, baseLat/tbLat)

	m := dep.Enclave.Meter()
	fmt.Println("\nTBNet cost breakdown per run:")
	fmt.Printf("  REE compute:  %.3g FLOPs\n", m.Flops(tee.REE)/images)
	fmt.Printf("  TEE compute:  %.3g FLOPs\n", m.Flops(tee.TEE)/images)
	fmt.Printf("  world switches: %d, staged bytes: %d\n",
		m.Switches()/images, m.TransferredBytes()/images)

	// The same accumulated costs priced under every registered backend: each
	// device owns its own overlap semantics, so the REE/TEE split that is a
	// 10x win on the serialized RPi3 plays out differently on parallel-world
	// or paging-limited hardware. A user-defined cost model joins the sweep by
	// registering itself.
	if err := tbnet.RegisterDevice(tbnet.CostModel{DeviceName: "custom-board", REEFlops: 4e9,
		TEEFlops: 1e9, SwitchLatency: 60 * time.Microsecond, TransferRate: 5e8,
		SecureCapacity: 16 << 20}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nper-device latency for the same finalized model (registered backends):")
	fmt.Printf("  %-14s %14s %14s %6s\n", "device", "baseline s/img", "tbnet s/img", "fits?")
	for _, d := range tbnet.Devices() {
		devBase, err := defense.FullTEE{}.Place(res.Victim, tbnet.Unbounded(d), []int{1, 3, 16, 16})
		if err != nil {
			log.Fatal(err)
		}
		devDep, err := tbnet.Deploy(res.TB, tbnet.Unbounded(d), []int{1, 3, 16, 16})
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < images; i++ {
			devBase.Infer(singles[i].X.Clone())
			if _, err := devDep.Infer(singles[i].X); err != nil {
				log.Fatal(err)
			}
		}
		fits := "yes"
		if cap := d.SecureMemBytes(); cap > 0 && devDep.SecureBytes > cap {
			fits = "no"
		}
		fmt.Printf("  %-14s %14.6f %14.6f %6s\n",
			d.Name(), devBase.Latency()/images, devDep.Latency()/images, fits)
	}

	// Serving layer on top: a one-node fleet on the same device, where
	// micro-batching amortizes the per-stage world switches across
	// concurrent requests. The callers arrive one goroutine at a time, so a
	// short linger lets a batch fill before an idle worker takes it.
	srv, err := tbnet.NewFleet(dep, tbnet.WithDevice(device, 2), tbnet.WithMaxBatch(8),
		tbnet.WithMaxDelay(5*time.Millisecond))
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	errs := make([]error, 32)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = srv.Infer(ctx, singles[i%len(singles)].X)
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		log.Fatal(err)
	}
	st := srv.Stats().PerDevice[0].Serve
	fmt.Println("\nbatched serving (this reproduction's serving layer):")
	fmt.Printf("  mean batch %.2f → modeled p50 %.4fs per request, %.0f req/s modeled\n",
		st.MeanBatch, st.P50Latency, st.ModeledThroughput)
	fmt.Printf("  vs %.0f req/s for unbatched single-session inference\n", 1/tbLat)
	if st.ModeledThroughput <= 1/tbLat {
		log.Fatalf("batched serving models %.0f req/s, no more than unbatched %.0f", st.ModeledThroughput, 1/tbLat)
	}
}
