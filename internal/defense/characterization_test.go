package defense

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"tbnet/internal/tee"
	"tbnet/internal/tensor"
	"tbnet/internal/zoo"
)

// charRecord is everything a placement reports that the paper's comparison
// reads: the sizing triple, the labels, the meter totals, the attacker's
// view of one inference, and the modeled latency per registered backend.
// Only the latency depends on the device; the rest is asserted on every
// backend against the same recorded value.
type charRecord struct {
	secure, exposed    int64
	arch               bool
	labels             []int
	switches           int
	transfer           int64
	reeFlops, teeFlops string
	// view is the AttackerView sequence as "kind:label:bytes" entries.
	view []string
	// latency is the run's priced seconds per backend, shortest round-trip
	// decimal.
	latency map[string]string
}

func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// characterize places the victim under s on d, runs one seeded two-image
// inference, and reads back its labels and what its script (the one-sample
// script batched to two) charges, shows and costs. Latency is returned
// separately.
func characterize(t *testing.T, s Strategy, v *zoo.Model, d tee.Device) (charRecord, string) {
	t.Helper()
	p, err := s.Place(v, d, shape)
	if err != nil {
		t.Fatalf("%s on %s: %v", s.Name(), d.Name(), err)
	}
	if p.Strategy != s.Name() || p.Device.Name() != d.Name() {
		t.Fatalf("%s on %s: placement says %s on %s", s.Name(), d.Name(), p.Strategy, p.Device.Name())
	}
	x := tensor.New(2, 3, 16, 16)
	tensor.NewRNG(42).FillNormal(x, 0, 1)
	r := charRecord{
		secure: p.SecureBytes, exposed: p.ExposedParamBytes, arch: p.ExposedArch,
		labels: p.Infer(x),
	}
	run := batched(p.script, x.Dim(0))
	m := charged(run)
	r.switches, r.transfer = m.Switches(), m.TransferredBytes()
	r.reeFlops, r.teeFlops = g(m.Flops(tee.REE)), g(m.Flops(tee.TEE))
	for _, e := range run.AttackerView() {
		r.view = append(r.view, fmt.Sprintf("%s:%s:%d", e.Kind, e.Label, e.Bytes))
	}
	return r, g(run.Price(d, p.SecureBytes))
}

// TestPlacementCharacterization pins every strategy (DarkneTZ at splits 0,
// 1, mid and len(stages)) on the four registered backends against values
// recorded before the placements were rewritten as plans over one executor.
func TestPlacementCharacterization(t *testing.T) {
	v := zoo.BuildVGG(zoo.VGG18Config(10), tensor.NewRNG(41))
	n := len(v.Stages)
	strategies := []Strategy{
		FullTEE{}, DarkneTZ{SplitAt: 0}, DarkneTZ{SplitAt: 1}, DarkneTZ{SplitAt: n / 2},
		DarkneTZ{SplitAt: n}, ShadowNet{}, MirrorNet{},
	}
	if len(tee.Devices()) != 4 {
		t.Fatalf("registered backends = %d, recorded 4", len(tee.Devices()))
	}
	for _, s := range strategies {
		want, ok := recorded[s.Name()]
		if !ok {
			t.Fatalf("no recorded values for %s", s.Name())
		}
		for _, d := range tee.Devices() {
			got, lat := characterize(t, s, v, d)
			got.latency = want.latency
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s on %s:\n got %s\nwant %s", s.Name(), d.Name(), got.literal(), want.literal())
			}
			if lat != want.latency[d.Name()] {
				t.Errorf("%s on %s: latency %s, recorded %s", s.Name(), d.Name(), lat, want.latency[d.Name()])
			}
		}
	}
}

// literal renders the record in the form the recorded table is written in.
func (r charRecord) literal() string {
	var b strings.Builder
	fmt.Fprintf(&b, "{secure: %d, exposed: %d, arch: %v, labels: %#v, switches: %d, transfer: %d, reeFlops: %q, teeFlops: %q,\n",
		r.secure, r.exposed, r.arch, r.labels, r.switches, r.transfer, r.reeFlops, r.teeFlops)
	fmt.Fprintf(&b, "view: strings.Fields(%q),\nlatency: %#v}", strings.Join(r.view, " "), r.latency)
	return b.String()
}

// recorded holds the values read at the parent of the executor rewrite
// (commit ebc0fed), keyed by Strategy.Name().
var recorded = map[string]charRecord{
	"full-tee": {secure: 491240, exposed: 0, arch: false, labels: []int{4, 6}, switches: 1, transfer: 6144, reeFlops: "0", teeFlops: "9.745024e+06",
		view:    strings.Fields("smc:input:0 transfer:input:6144"),
		latency: map[string]string{"jetson-tz": "0.008163925333333334", "rpi3": "0.016404260952380952", "sev-server": "0.0006070086826666666", "sgx-desktop": "6.96744e-05"}},
	"darknetz-split0": {secure: 491240, exposed: 0, arch: false, labels: []int{4, 6}, switches: 1, transfer: 6144, reeFlops: "0", teeFlops: "9.745024e+06",
		view:    strings.Fields("smc:input:0 transfer:input:6144"),
		latency: map[string]string{"jetson-tz": "0.008163925333333334", "rpi3": "0.016404260952380952", "sev-server": "0.0006070086826666666", "sgx-desktop": "6.96744e-05"}},
	"darknetz-split1": {secure: 502696, exposed: 1856, arch: true, labels: []int{4, 6}, switches: 1, transfer: 32768, reeFlops: "483328", teeFlops: "9.261696e+06",
		view:    strings.Fields("ree-weights:VGG18-S.s0:1856 ree-compute:VGG18-S.s0:32768 smc:boundary:0 transfer:boundary:32768"),
		latency: map[string]string{"jetson-tz": "0.007774464000000001", "rpi3": "0.015775476190476194", "sev-server": "0.0006091736462222222", "sgx-desktop": "6.99816e-05"}},
	"darknetz-split4": {secure: 407848, exposed: 67008, arch: true, labels: []int{4, 6}, switches: 1, transfer: 4096, reeFlops: "6.475776e+06", teeFlops: "3.269248e+06",
		view:    strings.Fields("ree-weights:VGG18-S.s0:1856 ree-compute:VGG18-S.s0:32768 ree-weights:VGG18-S.s1:9344 ree-compute:VGG18-S.s1:8192 ree-weights:VGG18-S.s2:18688 ree-compute:VGG18-S.s2:16384 ree-weights:VGG18-S.s3:37120 ree-compute:VGG18-S.s3:4096 smc:boundary:0 transfer:boundary:4096"),
		latency: map[string]string{"jetson-tz": "0.0027664213333333334", "rpi3": "0.006954569523809523", "sev-server": "0.0006061184853333333", "sgx-desktop": "3.54944e-05"}},
	"darknetz-split8": {secure: 3152, exposed: 465088, arch: true, labels: []int{4, 6}, switches: 1, transfer: 512, reeFlops: "9.742336e+06", teeFlops: "2688",
		view:    strings.Fields("ree-weights:VGG18-S.s0:1856 ree-compute:VGG18-S.s0:32768 ree-weights:VGG18-S.s1:9344 ree-compute:VGG18-S.s1:8192 ree-weights:VGG18-S.s2:18688 ree-compute:VGG18-S.s2:16384 ree-weights:VGG18-S.s3:37120 ree-compute:VGG18-S.s3:4096 ree-weights:VGG18-S.s4:55680 ree-compute:VGG18-S.s4:6144 ree-weights:VGG18-S.s5:83328 ree-compute:VGG18-S.s5:1536 ree-weights:VGG18-S.s6:111104 ree-compute:VGG18-S.s6:2048 ree-weights:VGG18-S.s7:147968 ree-compute:VGG18-S.s7:512 smc:boundary:0 transfer:boundary:512"),
		latency: map[string]string{"jetson-tz": "5.649322666666667e-05", "rpi3": "0.0021805961904761903", "sev-server": "0.0006054568675555555", "sgx-desktop": "4.8657066666666665e-05"}},
	"shadownet": {secure: 23640, exposed: 465088, arch: true, labels: []int{4, 6}, switches: 8, transfer: 71680, reeFlops: "9.742336e+06", teeFlops: "38528",
		view:    strings.Fields("ree-weights:VGG18-S.s0:1856 ree-compute:VGG18-S.s0:32768 smc:VGG18-S.s0:0 transfer:VGG18-S.s0:32768 ree-weights:VGG18-S.s1:9344 ree-compute:VGG18-S.s1:8192 smc:VGG18-S.s1:0 transfer:VGG18-S.s1:8192 ree-weights:VGG18-S.s2:18688 ree-compute:VGG18-S.s2:16384 smc:VGG18-S.s2:0 transfer:VGG18-S.s2:16384 ree-weights:VGG18-S.s3:37120 ree-compute:VGG18-S.s3:4096 smc:VGG18-S.s3:0 transfer:VGG18-S.s3:4096 ree-weights:VGG18-S.s4:55680 ree-compute:VGG18-S.s4:6144 smc:VGG18-S.s4:0 transfer:VGG18-S.s4:6144 ree-weights:VGG18-S.s5:83328 ree-compute:VGG18-S.s5:1536 smc:VGG18-S.s5:0 transfer:VGG18-S.s5:1536 ree-weights:VGG18-S.s6:111104 ree-compute:VGG18-S.s6:2048 smc:VGG18-S.s6:0 transfer:VGG18-S.s6:2048 ree-weights:VGG18-S.s7:147968 ree-compute:VGG18-S.s7:512 smc:VGG18-S.s7:0 transfer:VGG18-S.s7:512"),
		latency: map[string]string{"jetson-tz": "0.00038794666666666666", "rpi3": "0.0034586666666666663", "sev-server": "0.004811411427555555", "sgx-desktop": "0.00011355306666666667"}},
	"mirrornet": {secure: 146146, exposed: 467688, arch: true, labels: []int{4, 6}, switches: 8, transfer: 71680, reeFlops: "9.742336e+06", teeFlops: "2.438272e+06",
		view:    strings.Fields("ree-weights:VGG18-S.s0:1856 ree-compute:VGG18-S.s0:32768 smc:VGG18-S.s0:0 transfer:VGG18-S.s0:32768 ree-weights:VGG18-S.s1:9344 ree-compute:VGG18-S.s1:8192 smc:VGG18-S.s1:0 transfer:VGG18-S.s1:8192 ree-weights:VGG18-S.s2:18688 ree-compute:VGG18-S.s2:16384 smc:VGG18-S.s2:0 transfer:VGG18-S.s2:16384 ree-weights:VGG18-S.s3:37120 ree-compute:VGG18-S.s3:4096 smc:VGG18-S.s3:0 transfer:VGG18-S.s3:4096 ree-weights:VGG18-S.s4:55680 ree-compute:VGG18-S.s4:6144 smc:VGG18-S.s4:0 transfer:VGG18-S.s4:6144 ree-weights:VGG18-S.s5:83328 ree-compute:VGG18-S.s5:1536 smc:VGG18-S.s5:0 transfer:VGG18-S.s5:1536 ree-weights:VGG18-S.s6:111104 ree-compute:VGG18-S.s6:2048 smc:VGG18-S.s6:0 transfer:VGG18-S.s6:2048 ree-weights:VGG18-S.s7:147968 ree-compute:VGG18-S.s7:512 smc:VGG18-S.s7:0 transfer:VGG18-S.s7:512"),
		latency: map[string]string{"jetson-tz": "0.0023877333333333335", "rpi3": "0.00745824", "sev-server": "0.0048130112568888885", "sgx-desktop": "0.00011355306666666667"}},
}
