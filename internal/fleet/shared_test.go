package fleet

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"tbnet/internal/core"
	"tbnet/internal/tee"
	"tbnet/internal/tensor"
	"tbnet/internal/zoo"
)

// sharedTestDeployment deploys a finalized two-branch model of arch
// (ConvBlock, ResBlock or DWBlock stages) at prec, built from seed alone, so
// two calls with one seed give the same weights in two separate deployments.
func sharedTestDeployment(t *testing.T, arch string, prec core.Precision, seed uint64) *core.Deployment {
	t.Helper()
	rng := tensor.NewRNG(seed)
	var victim *zoo.Model
	switch arch {
	case "vgg":
		victim = zoo.BuildVGG(zoo.TinyVGGConfig(4), rng)
	case "resnet":
		victim = zoo.BuildResNet(zoo.TinyResNetConfig(4), true, rng)
	case "mobilenet":
		victim = zoo.BuildMobileNet(zoo.MobileNetSConfig(4), rng)
	}
	tb := core.NewTwoBranch(victim, seed+1)
	tb.Finalized = true
	deploy := core.Deploy
	if prec == core.PrecisionInt8 {
		deploy = core.DeployInt8
	}
	dep, err := deploy(tb, tee.RaspberryPi3(), []int{1, 3, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

// TestReplicasShareBranches: every session replicated from a deployment
// reads the same branches, so anything the inference path wrote into a
// layer or stage would be a data race. For every stage kind in both
// precisions, fresh replicas of a never-run deployment make their first
// inferences at once while a fleet serving another model hot-swaps to the
// same deployment under traffic; every label must equal the sequential one.
// The race detector (go test -race) is what makes the lock bite.
func TestReplicasShareBranches(t *testing.T) {
	xs := randSamples(6, 90)
	sgx, err := tee.ByName("sgx-desktop")
	if err != nil {
		t.Fatal(err)
	}
	for _, arch := range []string{"vgg", "resnet", "mobilenet"} {
		for _, prec := range []core.Precision{core.PrecisionF32, core.PrecisionInt8} {
			t.Run(arch+"/"+string(prec), func(t *testing.T) {
				want := groundTruth(t, sharedTestDeployment(t, arch, prec, 91), xs)
				dep := sharedTestDeployment(t, arch, prec, 91)
				f, err := New(sharedTestDeployment(t, arch, prec, 92), Config{
					Nodes:       []NodeConfig{{Device: tee.RaspberryPi3(), Workers: 2}, {Device: sgx, Workers: 1}},
					MaxInFlight: -1,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()

				var stop atomic.Bool
				var failed atomic.Int64
				var traffic sync.WaitGroup
				for g := 0; g < 2; g++ {
					traffic.Add(1)
					go func(g int) {
						defer traffic.Done()
						for i := g; !stop.Load(); i++ {
							if _, err := f.Infer(context.Background(), xs[i%len(xs)]); err != nil {
								failed.Add(1)
							}
						}
					}(g)
				}

				const replicas = 4
				start := make(chan struct{})
				errs := make([]error, replicas+1)
				got := make([][]int, replicas)
				var wg sync.WaitGroup
				for r := 0; r < replicas; r++ {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						<-start
						rep, err := dep.ReplicateOn(tee.RaspberryPi3(), 1, nil)
						if err != nil {
							errs[r] = err
							return
						}
						for _, x := range xs {
							labels, err := rep.Infer(x)
							if err != nil {
								errs[r] = err
								return
							}
							got[r] = append(got[r], labels[0])
						}
					}(r)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					errs[replicas] = f.SwapModel(DefaultModel, dep)
				}()
				close(start)
				wg.Wait()
				stop.Store(true)
				traffic.Wait()

				for r, err := range errs {
					if err != nil {
						t.Fatalf("goroutine %d: %v", r, err)
					}
				}
				if n := failed.Load(); n != 0 {
					t.Fatalf("%d requests failed across the swap", n)
				}
				for r, labels := range got {
					for i := range labels {
						if labels[i] != want[i] {
							t.Fatalf("replica %d sample %d: label %d, sequential %d", r, i, labels[i], want[i])
						}
					}
				}
				for i, l := range inferAll(t, f, xs) {
					if l != want[i] {
						t.Fatalf("swapped fleet sample %d: label %d, sequential %d", i, l, want[i])
					}
				}
			})
		}
	}
}
