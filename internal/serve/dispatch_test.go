package serve

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"tbnet/internal/tee"
	"tbnet/internal/tensor"
)

// gateTap records every run's batch size and, while armed, parks the run —
// after the protocol run, before it is recorded or answered — until opened.
// A parked run is a busy worker the test controls.
type gateTap struct {
	mu    sync.Mutex
	sizes []int
	gate  chan struct{}
}

func (g *gateTap) TapRun(_ tee.Device, _ string, batch int, _ []tee.Event) float64 {
	g.mu.Lock()
	g.sizes = append(g.sizes, batch)
	gate := g.gate
	g.mu.Unlock()
	if gate != nil {
		<-gate
	}
	return 0
}

func (g *gateTap) arm() {
	g.mu.Lock()
	g.gate = make(chan struct{})
	g.mu.Unlock()
}

func (g *gateTap) open() {
	g.mu.Lock()
	close(g.gate)
	g.gate = nil
	g.mu.Unlock()
}

func (g *gateTap) runs() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]int(nil), g.sizes...)
}

// waitFor polls cond until it holds, failing the test after ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// heldServer starts a one-worker server and parks that worker on a lone
// holder request. On return the worker is busy until tap.open, so every
// request admitted meanwhile can only wait on the dispatcher; holder yields
// the holder's own result.
func heldServer(t *testing.T, cfg Config) (srv *Server, tap *gateTap, p *pool, holder chan error) {
	t.Helper()
	tap = &gateTap{}
	tap.arm()
	cfg.Workers, cfg.Tap = 1, tap
	srv, err := New(testDeployment(t, 120), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	holder = make(chan error, 1)
	go func() {
		_, err := srv.Infer(context.Background(), randSamples(1, 121)[0])
		holder <- err
	}()
	waitFor(t, "the worker to park on the holder's run", func() bool { return len(tap.runs()) == 1 })
	p, _ = srv.lookup(DefaultModel)
	return srv, tap, p, holder
}

// admit enqueues one request per sample. Each is in the queue, or already
// with the dispatcher, when admit returns — unlike a concurrent Infer, whose
// in-flight count rises a moment before its queue send.
func admit(t *testing.T, p *pool, xs []*tensor.Tensor) []*request {
	t.Helper()
	reqs := make([]*request, len(xs))
	for i, x := range xs {
		reqs[i] = &request{x: x, resp: make(chan error, 1), ctx: context.Background()}
		reqs[i].out = reqs[i].one[:]
		if err := p.enqueue(context.Background(), reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return reqs
}

// answered waits for every admitted request's reply and fails on any error.
func answered(t *testing.T, reqs []*request) {
	t.Helper()
	for i, r := range reqs {
		if err := <-r.resp; err != nil || r.out[0].err != nil {
			t.Errorf("request %d: %v, %v", i, err, r.out[0].err)
		}
	}
}

// TestDispatchLoneRequestRunsAtOnce: under the default config an idle worker
// takes a lone request's batch immediately — every request is its own run,
// and its queue wait is far under the 2 ms the dispatcher used to hold it
// for companions that never came.
func TestDispatchLoneRequestRunsAtOnce(t *testing.T) {
	srv, err := New(testDeployment(t, 110), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const n = 9
	for _, x := range randSamples(n, 111) {
		if _, err := srv.Infer(context.Background(), x); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	if st.Requests != n || st.Batches != n || st.LargestBatch != 1 {
		t.Fatalf("stats = %d requests in %d runs (largest %d), want %d lone runs", st.Requests, st.Batches, st.LargestBatch, n)
	}
	// A lingering dispatcher holds every lone request for the whole delay, so
	// the lower quartile is enough to tell the policies apart — and, unlike
	// the mean, it survives scheduling hiccups on a loaded host.
	if q := st.QueueWaitHist.Quantile(0.25); q >= 1e-3 {
		t.Fatalf("lower-quartile queue wait = %.0f µs, want < 1000 with an idle worker", q*1e6)
	}
	if c := st.QueueWaitHist.Count(); c != n {
		t.Errorf("queue-wait histogram holds %d observations, want one per request (%d)", c, n)
	}
	if c := st.BatchSizeHist.Count(); c != n || st.BatchSizeHist.Sum() != n {
		t.Errorf("batch-size histogram: %d runs summing to %g samples, want %d/%d", c, st.BatchSizeHist.Sum(), n, n)
	}
}

// TestDispatchTopsUpWhileBusy: while the only worker is busy, the batch on
// offer absorbs arrivals up to MaxBatch and then stops; the rest wait in the
// queue and form the next batch.
func TestDispatchTopsUpWhileBusy(t *testing.T) {
	const maxBatch = 8
	for _, tc := range []struct {
		admit int
		runs  []int // after the holder's own run of 1
	}{
		{1, []int{1}},
		{3, []int{3}},
		{maxBatch, []int{maxBatch}},
		{maxBatch + 2, []int{maxBatch, 2}},
	} {
		t.Run(fmt.Sprintf("admit=%d", tc.admit), func(t *testing.T) {
			srv, tap, p, holder := heldServer(t, Config{MaxBatch: maxBatch})
			reqs := admit(t, p, randSamples(tc.admit, 122))
			left := tc.admit - tc.runs[0] // beyond a full batch, requests stay queued
			waitFor(t, "the dispatcher to absorb the arrivals", func() bool { return srv.QueueDepth() == left })
			if got := srv.InFlight(); got != int64(tc.admit)+1 {
				t.Fatalf("in flight = %d, want %d", got, tc.admit+1)
			}
			tap.open()
			if err := <-holder; err != nil {
				t.Fatal(err)
			}
			answered(t, reqs)
			if got, want := tap.runs(), append([]int{1}, tc.runs...); !reflect.DeepEqual(got, want) {
				t.Fatalf("runs carried %v samples, want %v", got, want)
			}
			st := srv.Stats()
			if st.Batches != int64(1+len(tc.runs)) || st.LargestBatch != tc.runs[0] {
				t.Fatalf("stats = %d runs, largest %d; want %d, %d", st.Batches, st.LargestBatch, 1+len(tc.runs), tc.runs[0])
			}
		})
	}
}

// TestDispatchLingerIsOptIn: with an explicit MaxDelay the batch is held
// back from an idle worker until it fills. The delay is far longer than the
// test, so only a full batch can release it: a dispatcher that ignored
// MaxDelay would run the first caller alone.
func TestDispatchLingerIsOptIn(t *testing.T) {
	tap := &gateTap{}
	srv, err := New(testDeployment(t, 130), Config{Workers: 1, MaxBatch: 4, MaxDelay: 30 * time.Second, Tap: tap})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	for _, x := range randSamples(4, 131) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := srv.Infer(context.Background(), x); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := tap.runs(); !reflect.DeepEqual(got, []int{4}) {
		t.Fatalf("runs carried %v samples, want one run of 4", got)
	}
}

// TestDispatchOfferSurvivesSwapAndClose: a batch on offer to a busy worker
// holds the generation lock shared, so a SwapModel arriving meanwhile parks
// behind it and a Close closes the queue under it. Neither may drop a
// request or deadlock.
func TestDispatchOfferSurvivesSwapAndClose(t *testing.T) {
	srv, tap, p, holder := heldServer(t, Config{MaxBatch: 4})
	reqs := admit(t, p, randSamples(3, 140))
	waitFor(t, "the batch to go on offer", func() bool { return srv.QueueDepth() == 0 })
	swapDone := make(chan error, 1)
	go func() { swapDone <- srv.SwapModel(DefaultModel, testDeployment(t, 141)) }()
	// A pending writer turns new readers away: that is the swap, warmed and
	// parked behind the dispatcher's hold.
	waitFor(t, "the swap to park behind the offer", func() bool {
		if p.genMu.TryRLock() {
			p.genMu.RUnlock()
			return false
		}
		return true
	})
	tap.open()
	if err := <-holder; err != nil {
		t.Fatal(err)
	}
	answered(t, reqs)
	if err := <-swapDone; err != nil {
		t.Fatalf("swap: %v", err)
	}

	// Same standoff on the new generation, now against Close.
	tap.arm()
	go func() {
		_, err := srv.Infer(context.Background(), randSamples(1, 142)[0])
		holder <- err
	}()
	waitFor(t, "the new worker to park", func() bool { return len(tap.runs()) == 3 })
	reqs = admit(t, p, randSamples(3, 143))
	waitFor(t, "the batch to go on offer", func() bool { return srv.QueueDepth() == 0 })
	closeDone := make(chan error, 1)
	go func() { closeDone <- srv.Close() }()
	waitFor(t, "Close to begin", srv.closed.Load)
	tap.open()
	if err := <-holder; err != nil {
		t.Fatal(err)
	}
	answered(t, reqs)
	if err := <-closeDone; err != nil {
		t.Fatalf("close: %v", err)
	}
	if got, want := tap.runs(), []int{1, 3, 1, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("runs carried %v samples, want %v", got, want)
	}
	if st := srv.Stats(); st.Requests != 8 || st.Errors != 0 {
		t.Fatalf("stats = %d served, %d failed; want 8/0", st.Requests, st.Errors)
	}
}
