package tensor

import (
	"sync"
	"testing"
	"time"
)

// TestParallelRunsPastABusyPool: with every pool worker blocked inside a
// job, another goroutine's Parallel call still returns, running its chunks
// itself, each under its own worker index. A chunk queued for a busy pool
// would wait for the blocked job instead.
func TestParallelRunsPastABusyPool(t *testing.T) {
	if poolSize < 2 {
		t.Skip("one P: Parallel never leaves the calling goroutine")
	}
	poolOnce.Do(poolStart)
	release := make(chan struct{})
	started := make(chan struct{})
	var held sync.WaitGroup
	held.Add(poolSize - 1)
	for w := 1; w < poolSize; w++ {
		// The send completes once a worker has taken the job: a blocked
		// worker cannot receive, so each job lands on a different one.
		poolJobs <- poolJob{fn: func(int, int, int) {
			started <- struct{}{}
			<-release
		}, worker: w, lo: 0, hi: 1, wg: &held}
		<-started
	}
	defer func() {
		close(release)
		held.Wait()
	}()

	seen := make([]int, poolSize)
	done := make(chan struct{})
	go func() {
		defer close(done)
		Parallel(poolSize, 1, func(worker, lo, hi int) { seen[worker] += hi - lo })
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Parallel waited on a pool whose every worker is blocked")
	}
	for w, n := range seen {
		if n != 1 {
			t.Fatalf("worker index %d ran %d indices, want 1", w, n)
		}
	}
}
