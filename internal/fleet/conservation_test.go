package fleet

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tbnet/internal/tee"
)

// checkSnapshot asserts one fleet snapshot's conservation laws: its three
// views of the served count agree, the histogram holds one observation per
// served request, and every request the callers have seen resolved (served,
// shed, or failed) is accounted — the total lies between the callers' own
// completed and started counts, read around the snapshot.
func checkSnapshot(t *testing.T, st Stats, completedBefore, startedAfter int64) {
	t.Helper()
	var perModel, perDevice int64
	for _, ms := range st.Models {
		perModel += ms.Requests
	}
	for _, ds := range st.PerDevice {
		perDevice += ds.Serve.Requests
	}
	if perModel != st.Requests || perDevice != st.Requests {
		t.Errorf("one snapshot: Requests %d, Σ Models %d, Σ PerDevice %d", st.Requests, perModel, perDevice)
	}
	if n := int64(st.LatencyHist.Count()); n != st.Requests {
		t.Errorf("one snapshot: LatencyHist.Count() %d, Requests %d", n, st.Requests)
	}
	if resolved := st.Requests + st.Shed + st.Errors; resolved < completedBefore || resolved > startedAfter {
		t.Errorf("Requests+Shed+Errors = %d+%d+%d, want within callers' [completed %d, started %d]",
			st.Requests, st.Shed, st.Errors, completedBefore, startedAfter)
	}
}

// checkMonotone asserts what a /metrics scraper relies on between two
// successive snapshots: the fleet's counters never go backwards, and the node
// set is the one the fleet was built with.
func checkMonotone(t *testing.T, prev, st Stats, names []string) {
	t.Helper()
	if st.Requests < prev.Requests || st.Shed < prev.Shed || st.Errors < prev.Errors ||
		st.RoutingDecisions < prev.RoutingDecisions {
		t.Errorf("counters went backwards: requests %d→%d shed %d→%d errors %d→%d routed %d→%d",
			prev.Requests, st.Requests, prev.Shed, st.Shed, prev.Errors, st.Errors,
			prev.RoutingDecisions, st.RoutingDecisions)
	}
	if got := deviceNames(st); !slices.Equal(got, names) {
		t.Errorf("per-device names = %v, want %v", got, names)
	}
}

func deviceNames(st Stats) []string {
	var names []string
	for _, ds := range st.PerDevice {
		names = append(names, ds.Name)
	}
	return names
}

// TestStatsConservation: offered == Requests + Shed + Errors the instant the
// last Infer returns, and every snapshot a reader takes beside 8-way traffic
// (shedding at a tight in-flight cap, across two nodes and two models) obeys
// the same law, agrees with itself, keeps every counter at or above the
// previous snapshot's and lists the same nodes.
func TestStatsConservation(t *testing.T) {
	sgx, err := tee.ByName("sgx-desktop")
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(testDeployment(t, 61), Config{
		Nodes:       []NodeConfig{{Device: tee.RaspberryPi3(), Workers: 1}, {Device: sgx, Workers: 1}},
		Models:      []NamedModel{{Name: "b", Dep: testDeployment(t, 62)}},
		MaxBatch:    4,
		MaxDelay:    20 * time.Microsecond,
		MaxInFlight: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	models := []string{DefaultModel, "b"}
	xs := randSamples(8, 63)
	ctx := context.Background()

	const sequential = 1000
	for i := 0; i < sequential; i++ {
		if _, err := f.InferModel(ctx, models[i%2], xs[i%len(xs)]); err != nil {
			t.Fatal(err)
		}
		st := f.Stats()
		checkSnapshot(t, st, int64(i+1), int64(i+1))
		if st.Requests != int64(i+1) {
			t.Errorf("Requests = %d right after request %d returned", st.Requests, i+1)
		}
		if t.Failed() {
			t.FailNow()
		}
	}

	const clients, each = 8, 250
	var started, completed, served, shed atomic.Int64
	started.Store(sequential)
	completed.Store(sequential)
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	names := []string{"rpi3", "sgx-desktop"}
	go func() {
		defer close(readerDone)
		prev := f.Stats()
		for {
			select {
			case <-stop:
				return
			default:
			}
			c := completed.Load()
			st := f.Stats()
			checkSnapshot(t, st, c, started.Load())
			checkMonotone(t, prev, st, names)
			prev = st
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				started.Add(1)
				_, err := f.InferModel(ctx, models[(c+i)%2], xs[(c+i)%len(xs)])
				switch {
				case err == nil:
					served.Add(1)
				case errors.Is(err, ErrOverloaded):
					shed.Add(1)
				default:
					t.Error(err)
				}
				completed.Add(1)
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	<-readerDone
	const offered = sequential + clients*each
	st := f.Stats()
	checkSnapshot(t, st, offered, offered)
	if st.Requests != sequential+served.Load() || st.Shed != shed.Load() || st.Errors != 0 {
		t.Errorf("fleet says %d served / %d shed / %d errors; callers saw %d / %d / 0",
			st.Requests, st.Shed, st.Errors, sequential+served.Load(), shed.Load())
	}
	if shed.Load() == 0 {
		t.Log("no request was shed: the in-flight cap never bound on this run")
	}
}

// ranTap counts protocol runs. A tap fires after its run and before the
// run's pacing sleep, so n > 0 means a worker holds a batch and is pacing —
// which load probes cannot tell from the dispatcher still holding it, and a
// swap that flips before the hand-off drains nothing.
type ranTap struct{ n atomic.Int64 }

func (r *ranTap) TapRun(string, tee.Device, string, int, []tee.Event) float64 {
	r.n.Add(1)
	return 0
}

// TestStatsDuringSwap: a fleet-wide snapshot never waits on a swap. One paced
// request holds the only worker, so SwapModel is parked draining the old
// generation; Stats must return while the swap is still out.
func TestStatsDuringSwap(t *testing.T) {
	var ran ranTap
	f, err := New(testDeployment(t, 64), Config{
		Nodes:     []NodeConfig{{Device: tee.RaspberryPi3(), Workers: 1}},
		MaxBatch:  1,
		PaceScale: 1000, // one run paces for over a second of wall time
		Tap:       &ran,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	inferDone := make(chan error, 1)
	go func() {
		_, err := f.Infer(context.Background(), randSamples(1, 65)[0])
		inferDone <- err
	}()
	for ran.n.Load() == 0 {
		time.Sleep(100 * time.Microsecond) // until the worker holds the batch
	}
	swapDone := make(chan error, 1)
	go func() { swapDone <- f.SwapModel(DefaultModel, testDeployment(t, 66)) }()

	// The fleet does not expose the moment the swap flips generations, so
	// keep reading across its warm-up and well into its drain: each read
	// must finish while the paced run — and so the swap — is still out.
	for i := 0; i < 100; i++ {
		st := f.Stats()
		select {
		case err := <-swapDone:
			t.Fatalf("swap returned (%v) before read %d did: a counter read waited on the swap", err, i)
		default:
		}
		if st.Requests != 0 || st.InFlight != 1 || len(st.Models) != 1 || st.Models[0].Precision != "f32" {
			t.Fatalf("snapshot during swap: %d served, %d in flight, models %+v", st.Requests, st.InFlight, st.Models)
		}
		time.Sleep(time.Millisecond)
	}
	if err := <-inferDone; err != nil {
		t.Fatal(err)
	}
	if err := <-swapDone; err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.Requests != 1 || st.Models[0].Swaps != 1 {
		t.Errorf("after the swap: %d served, %d swaps, want 1/1", st.Requests, st.Models[0].Swaps)
	}
}

// TestStatsConservationUnderDeadline: a request the fleet deadline sheds is
// never also counted served. Each run paces far past the 5ms deadline, so
// every request in the first batch is still running when its caller gives
// up, and the rest are expired by the time a worker picks them up; once the
// workers have finished pacing, offered == Requests + Shed + Errors, and
// the callers saw exactly what the books say.
func TestStatsConservationUnderDeadline(t *testing.T) {
	f, err := New(testDeployment(t, 67), Config{
		Nodes:     []NodeConfig{{Device: tee.RaspberryPi3(), Workers: 1}},
		Deadline:  5 * time.Millisecond,
		PaceScale: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	const offered = 12
	xs := randSamples(offered, 68)
	var served, shed atomic.Int64
	var wg sync.WaitGroup
	for i := range xs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch _, err := f.Infer(context.Background(), xs[i]); {
			case err == nil:
				served.Add(1)
			case errors.Is(err, ErrOverloaded):
				shed.Add(1)
			default:
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	f.Close() // drains the workers: every pacing sleep has finished
	st := f.Stats()
	if st.Requests+st.Shed+st.Errors != offered {
		t.Errorf("Requests+Shed+Errors = %d+%d+%d, offered %d", st.Requests, st.Shed, st.Errors, offered)
	}
	if st.Requests != served.Load() || st.Shed != shed.Load() {
		t.Errorf("fleet says %d served / %d shed; callers saw %d / %d",
			st.Requests, st.Shed, served.Load(), shed.Load())
	}
	if shed.Load() == 0 {
		t.Error("no request missed the deadline: the test did not exercise shedding")
	}
}

// TestStatsConservationUnderResize: a node's width has one home, its
// server. Every snapshot taken while a resizer churns the node's width
// reports the same width at the fleet and the serve level, and the fleet
// total is the sum of the per-device widths.
func TestStatsConservationUnderResize(t *testing.T) {
	f, err := New(testDeployment(t, 69), Config{
		Nodes:    []NodeConfig{{Device: tee.RaspberryPi3(), Workers: 1}},
		MaxBatch: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 60; i++ {
			if err := f.ResizeNode("rpi3", 1+(i+1)%3); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for snapshots := 0; ; snapshots++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if st := f.Stats(); st.Workers != 1 || f.Workers() != 1 {
				t.Fatalf("after the churn: Stats().Workers %d, Workers() %d, want 1", st.Workers, f.Workers())
			}
			t.Logf("%d snapshots under resize churn", snapshots)
			return
		default:
		}
		st := f.Stats()
		sum := 0
		for _, d := range st.PerDevice {
			if d.Workers != d.Serve.Workers {
				t.Fatalf("node %s: PerDevice.Workers %d, Serve.Workers %d in one snapshot", d.Name, d.Workers, d.Serve.Workers)
			}
			sum += d.Workers
		}
		if st.Workers != sum {
			t.Fatalf("Stats().Workers %d, Σ PerDevice.Workers %d", st.Workers, sum)
		}
	}
}
