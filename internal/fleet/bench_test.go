package fleet

import (
	"context"
	"sync"
	"testing"
	"time"

	"tbnet/internal/tee"
	"tbnet/internal/tensor"
)

// BenchmarkFleetThroughput drives a mixed rpi3 + sgx-desktop + jetson-tz
// fleet with a closed-loop client population and sweeps the routing policy,
// reporting modeled aggregate throughput, fleet-wide modeled p99, and the
// shed count — the cross-policy perf trajectory next to the per-device
// BenchmarkServerThroughput.
func BenchmarkFleetThroughput(b *testing.B) {
	for _, mk := range []func() Policy{RoundRobin, LeastLoaded, CostAware} {
		policy := mk()
		b.Run("policy="+policy.Name(), func(b *testing.B) {
			dep := testDeployment(b, 1)
			f, err := New(dep, Config{
				Nodes:    mixedNodes(b, 2),
				Policy:   policy,
				MaxBatch: 8,
				MaxDelay: time.Millisecond,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			xs := randSamples(16, 2)
			const clients = 8
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			work := make(chan int)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range work {
						if _, err := f.Infer(context.Background(), xs[i%len(xs)]); err != nil {
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
			st := f.Stats()
			b.ReportMetric(st.ModeledThroughput, "modeled-req/s")
			b.ReportMetric(st.P99Micros, "modeled-p99-us")
			b.ReportMetric(float64(st.Shed), "shed")
		})
	}
}

// BenchmarkFleetInferBatch times 16 samples as one InferBatch call against
// the same 16 as single Infer calls, on one rpi3 node with one worker and
// MaxBatch 16: the batch is one admission, one routing decision, one queue
// entry and one protocol run; the singles are sixteen of each. It reports
// host µs per sample and the node's realized mean batch.
func BenchmarkFleetInferBatch(b *testing.B) {
	const k = 16
	xs := randSamples(k, 3)
	x := tensor.New(k, 3, 16, 16)
	for i, s := range xs {
		copy(x.Data()[i*s.Size():], s.Data())
	}
	for _, mode := range []string{"batch", "single"} {
		b.Run(mode, func(b *testing.B) {
			f, err := New(testDeployment(b, 1), Config{
				Nodes:    []NodeConfig{{Device: tee.RaspberryPi3(), Workers: 1}},
				MaxBatch: k,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			ctx := context.Background()
			labels, errs := make([]int, k), make([]error, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "batch" {
					if err := f.InferBatch(ctx, DefaultModel, x, labels, errs); err != nil {
						b.Fatal(err)
					}
					continue
				}
				for _, s := range xs {
					if _, err := f.Infer(ctx, s); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*k), "us/sample")
			b.ReportMetric(f.Stats().PerDevice[0].Serve.MeanBatch, "mean_batch")
		})
	}
}
