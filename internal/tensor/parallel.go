package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// The package keeps one persistent pool of worker goroutines instead of
// spawning a fresh fan-out per kernel call: on the serving hot path a single
// inference crosses several parallel kernels, and per-call `go func`
// spawning is both an allocation and a scheduling cost that a fixed pool
// amortizes away. Workers are started lazily on the first parallel dispatch
// and then live for the life of the process, parked on a channel receive
// while idle. A chunk is handed over only to a parked worker (the channel is
// unbuffered and the send does not wait); with every worker busy, the caller
// runs the chunk itself. So a chunk never queues behind another caller's
// work, and concurrent Parallel calls degrade to running inline rather than
// waiting on each other.
//
// Nesting rule: work functions dispatched through Parallel must not call
// Parallel themselves (the pool does not re-enter). Kernels that run inside
// a parallel region — like the per-sample matmul inside a convolution's
// sample loop — use the serial kernel variants instead.

// poolJob is one contiguous index range handed to a pool worker.
type poolJob struct {
	fn     func(worker, lo, hi int)
	worker int
	lo, hi int
	wg     *sync.WaitGroup
}

var (
	poolOnce sync.Once
	poolJobs chan poolJob
	// poolSize is the maximum number of concurrently executing chunks: the
	// dispatching goroutine plus the background workers.
	poolSize = runtime.GOMAXPROCS(0)
)

func poolStart() {
	poolJobs = make(chan poolJob)
	for w := 0; w < poolSize-1; w++ {
		go func() {
			for j := range poolJobs {
				j.fn(j.worker, j.lo, j.hi)
				j.wg.Done()
			}
		}()
	}
}

// KernelStatus is the kernel layer's status check: which float32 and int8
// micro-kernels this process runs (the vector ones only when the CPU and OS
// passed their CPUID gates; int8=amx-int8 also only when Linux granted the
// process AMX tile data, else the line reads avx512vnni-4x4 or below), how a
// float32 convolution's GEMM gets its b
// operand — panels packed from the image under the tile kernel, the Im2Col
// column matrix under the portable one, which streams whole b rows — which
// kernel runs a deployed float32 convolution with fewer than 16 output
// positions (the narrow kernel, or off), which runs a 3×3 float32
// depthwise convolution (DepthwiseFused), which runs the 2×2 max pool
// (MaxPool2), and the dispatch threshold, in one line a daemon can log and
// an operator can grep.
func KernelStatus() string {
	conv, dw := "im2col", "scalar"
	if f32Level >= f32AVX {
		conv, dw = "packed-from-image", "avx-3x3"
	}
	return fmt.Sprintf("f32=%s f32conv=%s f32narrow=%s f32dw=%s pool=%s int8=%s parallel_above_macs=%d workers=%d",
		f32Level, conv, narrowKernel(f32Level), dw, poolKernel(f32Level), i8Level, 2*parallelMACs, poolSize)
}

// Workers returns the maximum number of concurrently executing chunks a
// Parallel call can produce. Callers that keep per-worker scratch (see
// nn.Arena) size it to this.
func Workers() int { return poolSize }

// Parallel splits [0, n) into at most Workers() contiguous chunks of at
// least grain indices each and runs fn(worker, lo, hi) on every chunk, where
// worker is a dense chunk index usable for per-worker scratch. Small ranges
// (or single-proc hosts) run inline on the calling goroutine with no
// dispatch cost at all; otherwise each chunk after the first goes to an idle
// pool worker, or runs on the calling goroutine when none is idle, and the
// caller then runs the first. A chunk keeps its worker index wherever it
// runs, so per-worker partial results combine in the same order either way.
// Parallel returns when every chunk has completed. fn must not call
// Parallel (see the package nesting rule).
func Parallel(n, grain int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	chunks := n / grain
	if chunks > poolSize {
		chunks = poolSize
	}
	if chunks <= 1 {
		fn(0, 0, n)
		return
	}
	poolOnce.Do(poolStart)
	var wg sync.WaitGroup
	size := (n + chunks - 1) / chunks
	wg.Add(chunks - 1)
	for w := 1; w < chunks; w++ {
		lo := w * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		if lo >= hi {
			wg.Done()
			continue
		}
		select {
		case poolJobs <- poolJob{fn: fn, worker: w, lo: lo, hi: hi, wg: &wg}:
		default:
			fn(w, lo, hi)
			wg.Done()
		}
	}
	fn(0, 0, size)
	wg.Wait()
}
