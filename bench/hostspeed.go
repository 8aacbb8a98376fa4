package main

import (
	"encoding/json"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host-speed meter.
//
// This class of host (a 2-vCPU VM on shared cores) does not run at one speed:
// for minutes at a time the same instructions cost 1.2 to 2 times the CPU time
// they cost when the neighbours are quiet, with next to no steal reported. A
// timing taken during such a spell measures the neighbours. So every timed
// run also times, ten times a second on both vCPUs, a fixed reference kernel
// that shares no code with the product, and reports its end-to-end times as
// they would read on a host running that kernel at its reference cost
// (README, "Reference speed").

// refKernelUs is the thread-CPU time of one reference kernel on a quiet host
// of the class the benchmark was sized on. It only fixes the unit: every run
// of every commit is scaled by the same constant.
const refKernelUs = 205.0

const meterEvery = 100 * time.Millisecond

// refKernel is the reference work: one standard-library decode of a fixed
// JSON document of 768 numbers, the size of one request body. Byte-at-a-time
// parsing, number conversion and a few small allocations: of the kernels
// tried, the instruction mix whose cost followed the four workloads' most
// closely (a dense float loop slows down more than they do).
type refKernel struct{ doc []byte }

func newRefKernel() refKernel {
	vals := make([]float64, 768)
	for i := range vals {
		vals[i] = float64(i%97)*0.0123456789 - 0.5
	}
	doc, err := json.Marshal(map[string]any{"input": vals})
	if err != nil {
		panic(err) // a map of floats always marshals
	}
	return refKernel{doc}
}

// threadCPU is the calling thread's CPU time. Unlike the wall clock it does
// not count time the guest kernel gave the thread's vCPU to another thread,
// only what the host did to the thread while the guest believed it running.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // the clock exists on every Linux
	}
	return time.Duration(ts.Nano())
}

// index runs the kernel once on the calling thread and returns the host's
// speed index at this moment: the kernel's CPU time over its reference cost.
// 1 is the reference speed, 1.5 a host on which CPU work costs half as much
// again.
func (k refKernel) index() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var out struct {
		Input []float64 `json:"input"`
	}
	t0 := threadCPU()
	if err := json.Unmarshal(k.doc, &out); err != nil {
		panic(err)
	}
	return float64(threadCPU()-t0) / 1e3 / refKernelUs
}

// indexOf is the median of n consecutive readings.
func (k refKernel) indexOf(n int) float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = k.index()
	}
	return median(xs)
}

// hostMeter samples the speed index beside a load phase.
type hostMeter struct {
	start   time.Time
	mu      sync.Mutex
	at      []time.Duration
	indices []float64
	stop    chan struct{}
	done    chan struct{}
}

// startHostMeter samples from now on. Each tick takes one reading on each of
// two goroutines, so that both vCPUs are usually read; a reading is 0.2 ms of
// CPU, so the meter costs the run 0.2% of a core.
func startHostMeter(start time.Time) *hostMeter {
	m := &hostMeter{start: start, stop: make(chan struct{}), done: make(chan struct{})}
	k := newRefKernel()
	go func() {
		defer close(m.done)
		tick := time.NewTicker(meterEvery)
		defer tick.Stop()
		for {
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					at := time.Since(m.start)
					h := k.index()
					m.mu.Lock()
					m.at, m.indices = append(m.at, at), append(m.indices, h)
					m.mu.Unlock()
				}()
			}
			wg.Wait()
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// perBin stops the meter and returns the median index inside every bin of
// [0, window). A bin without a reading takes the median of the whole window.
func (m *hostMeter) perBin(window time.Duration) []float64 {
	close(m.stop)
	<-m.done
	bins := make([][]float64, binCount(window))
	var all []float64
	for i, at := range m.at {
		if b, ok := binOf(at, window); ok {
			bins[b] = append(bins[b], m.indices[i])
			all = append(all, m.indices[i])
		}
	}
	whole := median(all)
	if len(all) == 0 {
		whole = 1
	}
	out := make([]float64, len(bins))
	for b, xs := range bins {
		if out[b] = median(xs); len(xs) == 0 {
			out[b] = whole
		}
	}
	return out
}
