package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tbnet/internal/core"
	"tbnet/internal/obs"
	"tbnet/internal/tee"
	"tbnet/internal/tensor"
)

// checkSnapshot asserts one Stats snapshot's internal consistency and that
// its served count lies between the callers' own completed and started
// counts, read around the snapshot.
func checkSnapshot(t *testing.T, st Stats, completedBefore, startedAfter int64) {
	t.Helper()
	if st.Requests < completedBefore || st.Requests > startedAfter {
		t.Errorf("Requests = %d, want within callers' [completed %d, started %d]",
			st.Requests, completedBefore, startedAfter)
	}
	if n := int64(st.LatencyHist.Count()); n != st.Requests {
		t.Errorf("LatencyHist.Count() = %d, Requests = %d in one snapshot", n, st.Requests)
	}
	var perModel int64
	for _, ms := range st.PerModel {
		perModel += ms.Requests
	}
	if perModel != st.Requests {
		t.Errorf("Σ PerModel.Requests = %d, Requests = %d in one snapshot", perModel, st.Requests)
	}
	if runs, waits := int64(st.BatchSizeHist.Count()), int64(st.QueueWaitHist.Count()); runs != st.Batches || waits != st.Requests+st.Errors {
		t.Errorf("batch-size/queue-wait histograms hold %d/%d observations, want Batches %d / Requests+Errors %d",
			runs, waits, st.Batches, st.Requests+st.Errors)
	}
}

// TestStatsConservation: a request is in every counter Stats reads by the
// time its Infer returns (record → pending-- → reply), so a caller's own
// count and the server's never disagree — read immediately after each
// sequential return, and in every snapshot a reader takes beside 8-way
// concurrent traffic across two hosted models.
func TestStatsConservation(t *testing.T) {
	srv, err := New(testDeployment(t, 91), Config{Workers: 2, MaxBatch: 4, MaxDelay: 20 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.AddModel("b", testDeployment(t, 92)); err != nil {
		t.Fatal(err)
	}
	models := []string{DefaultModel, "b"}
	xs := randSamples(8, 93)
	ctx := context.Background()

	const sequential = 2000
	for i := 0; i < sequential; i++ {
		if _, err := srv.InferModel(ctx, models[i%2], xs[i%len(xs)]); err != nil {
			t.Fatal(err)
		}
		checkSnapshot(t, srv.Stats(), int64(i+1), int64(i+1))
		if t.Failed() {
			t.Fatalf("after sequential request %d", i+1)
		}
	}

	const clients, each = 8, 250
	var started, completed atomic.Int64
	started.Store(sequential)
	completed.Store(sequential)
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			c := completed.Load()
			st := srv.Stats()
			checkSnapshot(t, st, c, started.Load())
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				started.Add(1)
				if _, err := srv.InferModel(ctx, models[(c+i)%2], xs[(c+i)%len(xs)]); err != nil {
					t.Error(err)
					return
				}
				completed.Add(1)
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	<-readerDone
	const total = sequential + clients*each
	checkSnapshot(t, srv.Stats(), total, total)
}

// TestStatsDuringSwap: no counter read waits on a swap. A gated worker holds
// one batch in flight, so SwapModel is parked draining the old generation
// until the test opens the gate; Stats and its per-model view must return
// before it does.
func TestStatsDuringSwap(t *testing.T) {
	srv, tap, p, holder := heldServer(t, Config{MaxBatch: 1})
	old := p.gen.Load()
	swapDone := make(chan error, 1)
	go func() { swapDone <- srv.SwapModel(DefaultModel, testDeployment(t, 96)) }()
	// Once the pool reports the new generation the swap is parked in the old
	// one's drain.
	waitFor(t, "the swap to flip generations", func() bool { return p.gen.Load() != old })

	got := make(chan Stats, 1)
	go func() { got <- srv.Stats() }()
	var st Stats
	select {
	case st = <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("a counter read waited on the swap, which cannot return before the gate opens")
	}
	if len(st.PerModel) != 1 {
		t.Fatalf("snapshot during swap: %d per-model entries, want 1", len(st.PerModel))
	}
	if ms := st.PerModel[0]; st.Precision != "f32" || ms.Precision != "f32" || ms.Model != DefaultModel {
		t.Errorf("snapshot during swap: precision %q / %q, model %q", st.Precision, ms.Precision, ms.Model)
	}
	if st.Requests != 0 || st.QueueDepth != 0 {
		t.Errorf("snapshot during swap: requests %d, queue %d, want 0/0 (the run is still held)",
			st.Requests, st.QueueDepth)
	}
	tap.open()
	if err := <-holder; err != nil {
		t.Fatal(err)
	}
	if err := <-swapDone; err != nil {
		t.Fatal(err)
	}
}

// countingTap records how many runs, and how many samples, were tapped.
type countingTap struct{ runs, samples atomic.Int64 }

func (c *countingTap) TapRun(_ tee.Device, _ string, batch int, _ []tee.Event) float64 {
	c.runs.Add(1)
	c.samples.Add(int64(batch))
	return 0
}

// TestFailedBatchIsolatedPerRequest covers the isolation path: the pool's
// generation is replaced by replicas of batch capacity 1 under MaxBatch 4,
// so every coalesced run fails its input check while each request alone
// succeeds. Every caller must still get its own correct label, and the
// books must show exactly one run per request.
func TestFailedBatchIsolatedPerRequest(t *testing.T) {
	dep := testDeployment(t, 97)
	tap := &countingTap{}
	tracer := obs.NewTracer(64)
	srv, err := New(dep, Config{Workers: 1, MaxBatch: 4, MaxDelay: 50 * time.Millisecond, Tap: tap, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Install a capacity-1 generation the way swapInto installs any other.
	p, _ := srv.lookup(DefaultModel)
	rep, err := dep.ReplicateOn(srv.device, 1, srv.budget)
	if err != nil {
		t.Fatal(err)
	}
	g := &generation{batches: make(chan []*request), reps: []*core.Deployment{rep},
		secureBytes: rep.SecureBytes, precision: "f32"}
	p.genMu.Lock()
	old := p.gen.Swap(g)
	p.startWorkers(g)
	p.genMu.Unlock()
	close(old.batches)
	old.workers.Wait()
	srv.budget.Free(old.secureBytes)

	const n = 8
	xs := randSamples(n, 98)
	want := make([]int, n)
	for i, x := range xs {
		labels, err := dep.Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = labels[0]
	}
	got := inferAll(t, srv, xs)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sample %d: isolated label %d, want %d", i, got[i], want[i])
		}
	}
	st := srv.Stats()
	if st.Requests != n || st.Errors != 0 || st.Batches != n || st.LargestBatch != 1 {
		t.Errorf("stats = %d requests, %d errors, %d batches, largest %d; want %d/0/%d/1",
			st.Requests, st.Errors, st.Batches, st.LargestBatch, n, n)
	}
	if c := st.LatencyHist.Count(); c != n {
		t.Errorf("histogram observations = %d, want one per request (%d)", c, n)
	}
	if tap.runs.Load() != n || tap.samples.Load() != n {
		t.Errorf("tap saw %d runs / %d samples, want %d single-sample runs", tap.runs.Load(), tap.samples.Load(), n)
	}

	// Traced requests that rode a failed batch keep their whole timeline:
	// the server's tracer self-starts a span for each of these callers, as
	// it did for each sample of the batch above.
	var wg sync.WaitGroup
	for _, x := range xs[:4] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := srv.Infer(context.Background(), x); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	spans := tracer.Snapshot(0, 0)
	if len(spans) != n+4 {
		t.Fatalf("tracer holds %d spans, want %d", len(spans), n+4)
	}
	for _, s := range spans {
		for _, stage := range []string{"queued", "ree", "tee"} {
			if s.StageMs(stage) <= 0 {
				t.Errorf("isolated request lost its %s stage: %+v", stage, s.Stages)
			}
		}
	}
}

// errPoisoned is poisonProgram's failure.
var errPoisoned = errors.New("poisoned sample")

// poisonProgram stands in for a replica's secure branch: a run fails if any
// of its samples starts with the value poison, and otherwise labels each
// sample with its first value.
type poisonProgram struct{ x *tensor.Tensor }

const poison = -1

func (p *poisonProgram) Invoke(_ *tee.Context, cmd int, payload *tensor.Tensor) error {
	if cmd != core.CmdInput {
		return nil
	}
	per := payload.Size() / payload.Dim(0)
	for i := range payload.Dim(0) {
		if payload.Data()[i*per] == poison {
			return errPoisoned
		}
	}
	p.x = payload
	return nil
}

func (p *poisonProgram) Result(*tee.Context) (*tensor.Tensor, error) {
	const classes = 10
	n, per := p.x.Dim(0), p.x.Size()/p.x.Dim(0)
	logits := tensor.New(n, classes)
	for i := range n {
		logits.Data()[i*classes+int(p.x.Data()[i*per])] = 1
	}
	return logits, nil
}

// TestFailedBatchIsolatedPerSample extends the isolation path to an entry of
// several samples: one InferBatch entry of four, one of them poisoned, fails
// its coalesced run, so each of its samples runs again alone. The three good
// samples get their labels; only the poisoned one carries the error, and the
// books show four one-sample runs — three served, one failed — with nothing
// left in flight.
func TestFailedBatchIsolatedPerSample(t *testing.T) {
	dep := testDeployment(t, 99)
	tap := &countingTap{}
	srv, err := New(dep, Config{Workers: 1, MaxBatch: 4, Tap: tap})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p, _ := srv.lookup(DefaultModel)
	rep, err := dep.ReplicateOn(srv.device, 4, srv.budget)
	if err != nil {
		t.Fatal(err)
	}
	rep.Enclave = tee.NewEnclave(&poisonProgram{}, tee.NewSecureMemory(srv.device.SecureMemBytes()))
	g := &generation{batches: make(chan []*request), reps: []*core.Deployment{rep},
		secureBytes: rep.SecureBytes, precision: "f32"}
	p.genMu.Lock()
	old := p.gen.Swap(g)
	p.startWorkers(g)
	p.genMu.Unlock()
	close(old.batches)
	old.workers.Wait()
	srv.budget.Free(old.secureBytes)

	want := []int{3, 1, poison, 7}
	x := tensor.New(len(want), 3, 16, 16)
	tensor.NewRNG(100).FillNormal(x, 0, 1)
	per := x.Size() / len(want)
	for i, label := range want {
		x.Data()[i*per] = float32(label)
	}
	labels, errs := make([]int, len(want)), make([]error, len(want))
	if err := srv.InferBatch(context.Background(), DefaultModel, x, labels, errs); err != nil {
		t.Fatal(err)
	}
	for i, label := range want {
		if label == poison {
			if !errors.Is(errs[i], errPoisoned) {
				t.Errorf("poisoned sample %d: error %v, want %v", i, errs[i], errPoisoned)
			}
			continue
		}
		if errs[i] != nil || labels[i] != label {
			t.Errorf("sample %d: label %d, error %v; want label %d alone", i, labels[i], errs[i], label)
		}
	}
	st := srv.Stats()
	checkSnapshot(t, st, 3, 3)
	if st.Requests != 3 || st.Errors != 1 || st.Batches != 4 || st.LargestBatch != 1 {
		t.Errorf("stats = %d requests, %d errors, %d batches, largest %d; want 3/1/4/1",
			st.Requests, st.Errors, st.Batches, st.LargestBatch)
	}
	if tap.runs.Load() != 3 || tap.samples.Load() != 3 {
		t.Errorf("tap saw %d runs / %d samples, want the 3 good one-sample runs", tap.runs.Load(), tap.samples.Load())
	}
	if n := srv.InFlight(); n != 0 {
		t.Errorf("%d samples still in flight", n)
	}
}
