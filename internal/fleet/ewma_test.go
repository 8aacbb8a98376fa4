package fleet

import (
	"context"
	"math"
	"testing"
	"time"
)

// TestEstimatorEWMA: the estimator seeds on the first observation, then
// moves DefaultEWMAAlpha of the way toward each new sample; a drop forgets
// exactly the named model.
func TestEstimatorEWMA(t *testing.T) {
	e := NewEstimator()
	if _, ok := e.Estimate("m", "a"); ok {
		t.Fatal("empty estimator reported an estimate")
	}
	e.Observe("m", "a", 1.0)
	if v, ok := e.Estimate("m", "a"); !ok || v != 1.0 {
		t.Fatalf("seed estimate = %v/%v, want 1.0/true", v, ok)
	}
	e.Observe("m", "a", 0.0)
	if v, _ := e.Estimate("m", "a"); math.Abs(v-0.8) > 1e-12 {
		t.Fatalf("post-decay estimate = %v, want 0.8", v)
	}
	e.Observe("m", "b", 0.5)
	e.Observe("n", "a", 0.25)
	snap := e.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d cells, want 3", len(snap))
	}
	// Sorted by model then node.
	if snap[0].Model != "m" || snap[0].Node != "a" || snap[0].Samples != 2 {
		t.Fatalf("snapshot[0] = %+v", snap[0])
	}
	if snap[2].Model != "n" {
		t.Fatalf("snapshot[2] = %+v, want model n last", snap[2])
	}
	e.DropModel("m")
	if snap := e.Snapshot(); len(snap) != 1 || snap[0].Model != "n" || snap[0].Node != "a" {
		t.Fatalf("cells after DropModel(m): %v, want only the (n,a) cell", snap)
	}
}

// TestEstimatorLearnsFromTraffic: a fleet routing with EWMA() keeps an
// estimator, and real served requests must populate its (model, node) cells
// through the serve observer hook — no manual feeding. A fleet on any other
// policy keeps none.
func TestEstimatorLearnsFromTraffic(t *testing.T) {
	static, err := New(testDeployment(t, 11), Config{Nodes: mixedNodes(t, 1), Policy: CostAware()})
	if err != nil {
		t.Fatal(err)
	}
	defer static.Close()
	if static.est != nil {
		t.Fatal("a cost-aware fleet built an estimator")
	}
	f, err := New(testDeployment(t, 11), Config{
		Nodes:    mixedNodes(t, 1),
		Policy:   EWMA(),
		MaxDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, x := range randSamples(12, 12) {
		if _, err := f.Infer(context.Background(), x); err != nil {
			t.Fatal(err)
		}
	}
	snap := f.Estimates()
	if len(snap) == 0 {
		t.Fatal("no estimator cells after 12 served requests")
	}
	for _, c := range snap {
		if c.Model != DefaultModel {
			t.Fatalf("unexpected model cell %+v", c)
		}
		if c.Seconds <= 0 || c.Samples <= 0 {
			t.Fatalf("degenerate cell %+v", c)
		}
	}
}

// TestRoutingShiftsOffDegradedNode is the adaptive-routing check: EWMA
// routing must abandon a node whose observed latency degrades after
// construction — construction-time probes are no longer trusted forever. The
// degraded node must receive zero traffic within the next N routing
// decisions.
func TestRoutingShiftsOffDegradedNode(t *testing.T) {
	const n = 50
	t.Run("ewma", func(t *testing.T) {
		device := mixedNodes(t, 1)[0].Device
		f, err := New(testDeployment(t, 21), Config{
			// Two identical devices: the probes cannot separate them.
			Nodes:    []NodeConfig{{Device: device, Workers: 1}, {Device: device, Workers: 1}},
			Policy:   EWMA(),
			MaxDelay: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		// Both nodes start indistinguishable; then node rpi3 degrades hard —
		// thermal throttling, say — which the estimator observes.
		f.est.Observe(DefaultModel, "rpi3", 0.5)
		f.est.Observe(DefaultModel, "rpi3#2", 0.001)
		degraded := 0
		for i := 0; i < n; i++ {
			picked := f.route(DefaultModel)
			if picked.name == "rpi3" {
				degraded++
			}
		}
		if degraded != 0 {
			t.Fatalf("sent %d/%d decisions to the degraded node after the estimator flagged it", degraded, n)
		}
	})
}

// TestEWMAPolicyPick: the policy's scoring must prefer the lower
// latency-per-capacity node and fold backlog in.
func TestEWMAPolicyPick(t *testing.T) {
	p := EWMA()
	if p.Name() != "ewma" {
		t.Fatalf("Name() = %q", p.Name())
	}
	loads := []Load{
		{Name: "slow", Workers: 1, SampleLatency: 0.100},
		{Name: "fast", Workers: 1, SampleLatency: 0.001},
	}
	if got := p.Pick(loads); got != 1 {
		t.Fatalf("idle pick = %d, want the fast node", got)
	}
	// Pile backlog on the fast node until the slow one wins.
	loads[1].QueueDepth = 200
	if got := p.Pick(loads); got != 0 {
		t.Fatalf("backlogged pick = %d, want the slow node", got)
	}
}
