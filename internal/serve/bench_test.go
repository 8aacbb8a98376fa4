package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"tbnet/internal/tee"
)

// BenchmarkServerThroughput drives the serving layer with a closed-loop
// concurrent client population and reports machine-readable domain metrics:
// modeled device throughput (req/modeled-sec), realized micro-batch size,
// and modeled p99 latency — per registered hardware backend, so the bench
// trajectory tracks every cost model, not just the paper's testbed.
// `tbnet experiment ... -json` and these benchmark metrics are the perf
// trajectory future PRs track.
func BenchmarkServerThroughput(b *testing.B) {
	for _, devName := range []string{"rpi3", "sgx-desktop", "jetson-tz"} {
		device, err := tee.ByName(devName)
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("device=%s/workers=%d", devName, workers), func(b *testing.B) {
				dep := testDeploymentOn(b, 1, device)
				srv, err := New(dep, Config{
					Workers:  workers,
					MaxBatch: 8,
					MaxDelay: time.Millisecond,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer srv.Close()
				xs := randSamples(16, 2)
				clients := 4 * workers
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				work := make(chan int)
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						// Keep draining work after an error so the producer
						// never blocks on the unbuffered channel.
						for i := range work {
							if _, err := srv.Infer(context.Background(), xs[i%len(xs)]); err != nil {
								b.Error(err)
							}
						}
					}()
				}
				for i := 0; i < b.N; i++ {
					work <- i
				}
				close(work)
				wg.Wait()
				b.StopTimer()
				st := srv.Stats()
				b.ReportMetric(st.ModeledThroughput, "modeled-req/s")
				b.ReportMetric(st.MeanBatch, "mean-batch")
				b.ReportMetric(st.P99Latency*1e3, "modeled-p99-ms")
				b.ReportMetric(st.HostNsPerOp, "host-ns/op")
			})
		}
	}
}

// BenchmarkInferAllocs is the allocation trajectory of the steady-state
// serving path: sequential single-sample requests through the full stack
// (queue → batcher → worker replica → plan arenas). Run with -benchmem; the
// acceptance target is ≤ 8 allocs/op on the single-proc CI runner, asserted
// hard by TestServerInferSteadyStateAllocs.
func BenchmarkInferAllocs(b *testing.B) {
	dep := testDeployment(b, 21)
	srv, err := New(dep, Config{Workers: 1, MaxBatch: 1, MaxDelay: time.Microsecond})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	x := randSamples(1, 22)[0]
	for i := 0; i < 8; i++ { // reach steady state before measuring
		if _, err := srv.Infer(ctx, x); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Infer(ctx, x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInferLone is the ledger row for the lone caller: one worker,
// MaxBatch 8, a sequential caller that never has company. The two legs are
// the same deployment with and without the opt-in linger, and queue-wait-us
// (from Stats) says how much of ns/op the request spent waiting for a batch
// slot: with linger=0 an idle worker takes it at once, with linger=2ms it
// waits out the delay for companions that never come.
func BenchmarkInferLone(b *testing.B) {
	for _, linger := range []time.Duration{0, 2 * time.Millisecond} {
		b.Run(fmt.Sprintf("linger=%v", linger), func(b *testing.B) {
			srv, err := New(testDeployment(b, 23), Config{Workers: 1, MaxBatch: 8, MaxDelay: linger})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			ctx := context.Background()
			x := randSamples(1, 24)[0]
			for i := 0; i < 8; i++ { // reach steady state before measuring
				if _, err := srv.Infer(ctx, x); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := srv.Infer(ctx, x); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(srv.Stats().AvgQueueWaitMicros, "queue-wait-us")
		})
	}
}
