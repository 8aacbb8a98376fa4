// Fleet routing: serves one finalized TBNet model across a mixed fleet of
// TEE devices — the paper's rpi3 edge board next to server-class SGX and a
// Jetson-class SoC — and compares the built-in routing policies under the
// same concurrent load. On heterogeneous hardware the policy, not just
// per-device batching, sets the fleet-wide latency tail: round-robin pins
// p99 to the slowest board, while cost-aware routing keeps the edge device
// idle until the fast backends saturate. The final section shows admission
// control shedding overdue requests with tbnet.ErrOverloaded instead of
// queueing them past their deadline.
//
// Run with: go run ./examples/fleet_routing
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"tbnet"
	"tbnet/internal/report"
)

func main() {
	ctx := context.Background()
	p, err := tbnet.NewPipeline(
		tbnet.WithArch("tiny-vgg"),
		tbnet.WithDataset("c10"),
		tbnet.WithSeed(30),
		tbnet.WithDatasetSize(96, 48),
		tbnet.WithEpochs(3, 3, 1),
		tbnet.WithPruning(1.0, 1),
	)
	if err != nil {
		log.Fatal(err)
	}
	res, err := p.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	dep, err := tbnet.Deploy(res.TB, tbnet.RaspberryPi3(), []int{1, 3, 16, 16})
	if err != nil {
		log.Fatal(err)
	}
	singles := res.Test.Batches(1, nil)
	sgx, err := tbnet.DeviceByName("sgx-desktop")
	if err != nil {
		log.Fatal(err)
	}
	jetson, err := tbnet.DeviceByName("jetson-tz")
	if err != nil {
		log.Fatal(err)
	}

	// The same load, three routing policies.
	for _, policy := range []tbnet.RoutingPolicy{
		tbnet.RoundRobin(), tbnet.LeastLoaded(), tbnet.CostAware(),
	} {
		f, err := tbnet.NewFleet(dep,
			tbnet.WithDevice(dep.Device, 2),
			tbnet.WithDevice(sgx, 2),
			tbnet.WithDevice(jetson, 2),
			tbnet.WithPolicy(policy),
		)
		if err != nil {
			log.Fatal(err)
		}
		var wg sync.WaitGroup
		work := make(chan int)
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					if _, err := f.Infer(ctx, singles[i%len(singles)].X); err != nil {
						log.Fatal(err)
					}
				}
			}()
		}
		for i := 0; i < 96; i++ {
			work <- i
		}
		close(work)
		wg.Wait()
		st := f.Stats()
		f.Close()
		report.FleetTable(st).Render(os.Stdout)
		fmt.Println()
	}

	// Admission control: with a deadline far below the batching delay, a
	// request that cannot be answered in time is shed, not queued forever.
	f, err := tbnet.NewFleet(dep,
		tbnet.WithDevice(dep.Device, 1),
		tbnet.WithMaxDelay(20*time.Millisecond),
		tbnet.WithDeadline(time.Millisecond),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	_, err = f.Infer(ctx, singles[0].X)
	fmt.Printf("1ms deadline on a lazy fleet: err = %v (shed: %v)\n",
		err, errors.Is(err, tbnet.ErrOverloaded))
}
