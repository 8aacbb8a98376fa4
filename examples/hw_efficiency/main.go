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

	// Per-inference latency (paper Table 3): each side's single-image run
	// priced from its plan.
	baseLat := base.Price()
	tbLat, _ := dep.ModeledLatency(1) // every deployment serves batch 1
	fmt.Println("\nper-inference latency on the simulated RPi3 (paper Table 3):")
	fmt.Printf("  baseline: %.4fs\n", baseLat)
	fmt.Printf("  TBNet:    %.4fs  (%.2fx reduction)\n", tbLat, baseLat/tbLat)

	// One run's costs are its script charged to a meter.
	script, _ := dep.Script(1)
	var m tee.Meter
	m.Charge(script)
	fmt.Println("\nTBNet cost breakdown per run:")
	fmt.Printf("  REE compute:  %.3g FLOPs\n", m.Flops(tee.REE))
	fmt.Printf("  TEE compute:  %.3g FLOPs\n", m.Flops(tee.TEE))
	fmt.Printf("  world switches: %d, staged bytes: %d\n", m.Switches(), m.TransferredBytes())

	// The same run priced under every registered backend: each
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
		devLat, _ := devDep.ModeledLatency(1)
		fits := "yes"
		if cap := d.SecureMemBytes(); cap > 0 && devDep.SecureBytes > cap {
			fits = "no"
		}
		fmt.Printf("  %-14s %14.6f %14.6f %6s\n", d.Name(), devBase.Price(), devLat, fits)
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
	singles := res.Test.Batches(1, nil)
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
