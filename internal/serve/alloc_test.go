package serve

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// allocLimit is the steady-state allocation budget for one inference through
// a deployment, on every host: no single-sample GEMM in the zoo is big enough
// to leave its goroutine (tensor's dispatch rule), so GOMAXPROCS does not
// enter into it.
const allocLimit = 8

// TestDeploymentInferSteadyStateAllocs locks the deployment plan's core
// promise: once the session is warm, Infer through the preplanned arenas
// performs (almost) no heap allocation — the remaining budget covers the
// returned label slice. A session keeps no per-run record either: ten
// thousand warm runs allocate no byte at all, which AllocsPerRun's rounded
// mean would not show of a record growing by amortised appends.
func TestDeploymentInferSteadyStateAllocs(t *testing.T) {
	dep := testDeployment(t, 9)
	x := randSamples(1, 10)[0]
	labels := make([]int, 1)
	for i := 0; i < 4; i++ { // warm the arenas
		if _, err := dep.Infer(x); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := dep.InferInto(x, labels); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > allocLimit {
		t.Fatalf("steady-state Deployment.InferInto allocates %.1f/op, budget %d", allocs, allocLimit)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10000; i++ {
		if _, err := dep.InferInto(x, labels); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew != 0 {
		t.Fatalf("10000 warm Deployment.InferInto runs allocate %d B, want 0", grew)
	}
	// The allocating wrapper may add only the label slice.
	allocs = testing.AllocsPerRun(50, func() {
		if _, err := dep.Infer(x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > allocLimit+1 {
		t.Fatalf("steady-state Deployment.Infer allocates %.1f/op, budget %d", allocs, allocLimit+1)
	}
}

// TestServerInferSteadyStateAllocs is the end-to-end acceptance regression:
// a steady stream of single-sample requests through the full serving path —
// queue, batching, worker replica, stats — must stay within a small fixed
// allocation budget per op. The budget is exactly what the path costs, 4:
// three in Infer (the request and its reply channel) and the dispatcher's
// batch, allocated once at MaxBatch capacity and filtered in place by the
// worker.
func TestServerInferSteadyStateAllocs(t *testing.T) {
	dep := testDeployment(t, 11)
	srv, err := New(dep, Config{Workers: 1, MaxBatch: 1, MaxDelay: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	x := randSamples(1, 12)[0]
	for i := 0; i < 8; i++ { // warm replicas, arenas, scratch, stats ring
		if _, err := srv.Infer(ctx, x); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := srv.Infer(ctx, x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("steady-state Server.Infer allocates %.1f/op, budget 4", allocs)
	}
}

// TestServerBatchedInferMatchesAndReusesScratch drives batches bigger than
// one through the worker staging views and checks labels still match
// sequential inference (scratch reuse must not corrupt samples).
func TestServerBatchedInferMatchesAndReusesScratch(t *testing.T) {
	dep := testDeployment(t, 13)
	want := make([][]int, 0)
	xs := randSamples(12, 14)
	for _, x := range xs {
		l, err := dep.Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, l)
	}
	srv, err := New(dep, Config{Workers: 1, MaxBatch: 4, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for round := 0; round < 3; round++ { // repeat so the scratch is reused warm
		labels := inferAll(t, srv, xs)
		for i := range labels {
			if labels[i] != want[i][0] {
				t.Fatalf("round %d sample %d: label %d, want %d", round, i, labels[i], want[i][0])
			}
		}
	}
	st := srv.Stats()
	if st.HostNsPerOp <= 0 {
		t.Fatalf("HostNsPerOp = %v, want > 0 after served traffic", st.HostNsPerOp)
	}
}
