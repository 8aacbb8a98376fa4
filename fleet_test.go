package tbnet

// Facade tests for the fleet surface: option plumbing, error sentinels, and
// one routed end-to-end round trip. Fleet behaviour itself is covered in
// internal/fleet; these tests use a randomly initialized finalized model so
// they stay fast enough for the -race CI pass.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tbnet/internal/tee"
)

// countingTap counts the worker runs a fleet hands its tap.
type countingTap struct{ runs atomic.Int64 }

func (c *countingTap) TapRun(string, Device, string, int, []tee.Event) float64 {
	c.runs.Add(1)
	return 0
}

// deviceNamed resolves a registered backend for WithDevice.
func deviceNamed(t *testing.T, name string) Device {
	t.Helper()
	d, err := DeviceByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestFleetOverHTTPTracedAndTapped is the daemon's wiring through the
// facade: a least-loaded fleet sharing one tracer with NewHTTPServer, a run
// tap installed, answers one inference over the handler, and the span and
// the tapped run are both recorded.
func TestFleetOverHTTPTracedAndTapped(t *testing.T) {
	tr := NewTracer(16)
	tap := &countingTap{}
	f, err := NewFleet(finalizedDeployment(t, 1), WithDevice(RaspberryPi3(), 1),
		WithPolicy(LeastLoaded()), WithTracing(tr), WithFleetTap(tap))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	srv, err := NewHTTPServer(HTTPConfig{Fleet: f, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	body := `{"input":[` + strings.TrimSuffix(strings.Repeat("0.5,", 3*16*16), ",") + `]}`
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/infer", strings.NewReader(body)))
	if st := f.Stats(); w.Code != http.StatusOK || st.Policy != "least-loaded" || tap.runs.Load() != 1 {
		t.Fatalf("POST /v1/infer = %d %s; policy %q, %d tapped runs", w.Code, w.Body, st.Policy, tap.runs.Load())
	}
	if spans := tr.Snapshot(0, 0); len(spans) != 1 || spans[0].Node != "rpi3" {
		t.Fatalf("spans = %+v, want one routed to rpi3", spans)
	}
}

func TestNewFleetRoutesAcrossDevices(t *testing.T) {
	dep := finalizedDeployment(t, 1)
	f, err := NewFleet(dep,
		WithDevice(RaspberryPi3(), 1),
		WithDevice(deviceNamed(t, "sgx-desktop"), 2),
		WithDevice(deviceNamed(t, "jetson-tz"), 1),
		WithPolicy(CostAware()),
		WithDeadline(5*time.Second),
		WithMaxInFlight(64),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	x := probeInputs(1, 3)[0]
	want, err := dep.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Infer(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	if got != want[0] {
		t.Fatalf("fleet label %d != template label %d", got, want[0])
	}
	st := f.Stats()
	if st.Policy != "cost-aware" || st.Devices != 3 || st.Requests != 1 {
		t.Fatalf("fleet stats wrong: %+v", st)
	}
}

func TestNewFleetDefaultsToTemplateDevice(t *testing.T) {
	dep := finalizedDeployment(t, 1)
	f, err := NewFleet(dep)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st := f.Stats()
	if st.Devices != 1 || st.PerDevice[0].Name != "rpi3" {
		t.Fatalf("default fleet = %+v, want single rpi3 node", st.PerDevice)
	}
}

func TestNewFleetOptionValidation(t *testing.T) {
	dep := finalizedDeployment(t, 1)
	for name, opt := range map[string]FleetOption{
		"nil device": WithDevice(nil, 1), "zero workers": WithDevice(dep.Device, 0),
		"nil policy": WithPolicy(nil), "zero deadline": WithDeadline(0),
		"zero max in-flight": WithMaxInFlight(0),
	} {
		if _, err := NewFleet(dep, opt); !errors.Is(err, ErrBadOption) {
			t.Fatalf("%s: err = %v, want ErrBadOption", name, err)
		}
	}
	if _, err := NewFleet(nil); !errors.Is(err, ErrBadOption) {
		t.Fatalf("nil deployment: err = %v, want ErrBadOption", err)
	}
}

// TestFleetShedsThroughFacade: the ErrOverloaded sentinel is matchable on
// the public surface.
func TestFleetShedsThroughFacade(t *testing.T) {
	dep := finalizedDeployment(t, 1)
	// No request can be answered inside a 1ns deadline, so the first is shed.
	f, err := NewFleet(dep, WithDevice(RaspberryPi3(), 1), WithDeadline(time.Nanosecond))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	x := probeInputs(1, 4)[0]
	if _, err = f.Infer(context.Background(), x); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
}

// TestNewFleetAutoscale: WithAutoscale returns a fleet carrying a live
// controller, FleetAutoscaler retrieves it, scaling events reach the
// configured logger, and Close stops the loop.
func TestNewFleetAutoscale(t *testing.T) {
	dep := finalizedDeployment(t, 1)
	events := make(chan AutoscaleEvent, 64)
	f, err := NewFleet(dep,
		WithDevice(RaspberryPi3(), 1),
		WithAutoscale(1, 4),
		WithAutoscaleInterval(2*time.Millisecond),
		WithAutoscaleLogger(func(ev AutoscaleEvent) {
			select {
			case events <- ev:
			default:
			}
		}),
		WithPace(50),
		WithMaxInFlight(1024),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctl := FleetAutoscaler(f)
	if ctl == nil {
		t.Fatal("FleetAutoscaler returned nil for an autoscaled fleet")
	}
	st := ctl.Stats()
	if !st.Running || st.Min != 1 || st.Max != 4 {
		t.Fatalf("controller stats = %+v, want running with bounds [1,4]", st)
	}
	// Park a paced burst so the loop has pressure to react to.
	x := probeInputs(1, 5)[0]
	done := make(chan struct{})
	for i := 0; i < 16; i++ {
		go func() { f.Infer(context.Background(), x); done <- struct{}{} }()
	}
	select {
	case ev := <-events:
		if ev.Node == "" || ev.To < 1 || ev.TotalWorkers < 1 {
			t.Fatalf("malformed scaling event %+v", ev)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("controller never scaled under a parked burst")
	}
	for i := 0; i < 16; i++ {
		<-done
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if ctl.Stats().Running {
		t.Fatal("controller still running after fleet Close")
	}
}

// TestNewFleetAutoscaleValidation: broken autoscale options surface as
// ErrBadOption from NewFleet.
func TestNewFleetAutoscaleValidation(t *testing.T) {
	dep := finalizedDeployment(t, 1)
	for name, opt := range map[string]FleetOption{
		"inverted bounds": WithAutoscale(4, 2), "zero min": WithAutoscale(0, 2),
		"zero interval": WithAutoscaleInterval(0), "nil logger": WithAutoscaleLogger(nil),
		"negative pace": WithPace(-1), "nil tracer": WithTracing(nil), "nil tap": WithFleetTap(nil),
	} {
		if _, err := NewFleet(dep, opt); !errors.Is(err, ErrBadOption) {
			t.Fatalf("%s: err = %v, want ErrBadOption", name, err)
		}
	}
}

// TestNewFleetEWMARouting: WithPolicy(EWMA()) selects the adaptive policy
// and the fleet reports learned estimates after traffic.
func TestNewFleetEWMARouting(t *testing.T) {
	dep := finalizedDeployment(t, 1)
	f, err := NewFleet(dep,
		WithDevice(RaspberryPi3(), 1),
		WithDevice(deviceNamed(t, "sgx-desktop"), 1),
		WithPolicy(EWMA()),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if got := f.Stats().Policy; got != "ewma" {
		t.Fatalf("policy = %q, want ewma", got)
	}
	x := probeInputs(1, 6)[0]
	for i := 0; i < 8; i++ {
		if _, err := f.Infer(context.Background(), x); err != nil {
			t.Fatal(err)
		}
	}
	if est := f.Estimates(); len(est) == 0 {
		t.Fatal("no learned estimates after served traffic")
	}
	if FleetAutoscaler(f) != nil {
		t.Fatal("FleetAutoscaler non-nil for a fleet without WithAutoscale")
	}
}
