package core

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"tbnet/internal/profile"
	"tbnet/internal/tee"
	"tbnet/internal/tensor"
	"tbnet/internal/zoo"
)

// finalizedTB builds a small trained+pruned+finalized TBNet model for
// deployment tests.
func finalizedTB(t *testing.T, seed uint64) (*TwoBranch, *zoo.Model) {
	t.Helper()
	train, test := smallTask(4, 64, 32, seed)
	victim := tinyVictimVGG(4, seed+1)
	TrainModel(victim, train, nil, fastCfg(1))
	tb := NewTwoBranch(victim, seed+2)
	TrainTwoBranch(tb, train, test, fastCfg(2))
	cfg := DefaultPruneConfig(1.0, 1)
	cfg.MaxIters = 2
	cfg.FineTune = fastCfg(1)
	res := PruneTwoBranch(tb, train, test, cfg)
	FinalizeRollback(tb, res)
	return tb, victim
}

func TestDeployRequiresFinalization(t *testing.T) {
	tb := NewTwoBranch(tinyVictimVGG(4, 30), 31)
	if _, err := Deploy(tb, tee.RaspberryPi3(), []int{1, 3, 16, 16}); err == nil {
		t.Fatal("deploying an unfinalized model must fail")
	}
}

func TestDeployAndInferMatchesForward(t *testing.T) {
	tb, _ := finalizedTB(t, 40)
	dep, err := Deploy(tb, tee.RaspberryPi3(), []int{5, 3, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	x := randX(5, 41)
	labels, err := dep.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	logits := tb.Forward(x, false)
	for i, l := range labels {
		if logits.ArgMaxRow(i) != l {
			t.Fatalf("deployed inference diverges from the reference at %d", i)
		}
	}
}

func TestDeploymentOneWayChannel(t *testing.T) {
	tb, _ := finalizedTB(t, 50)
	dep, err := Deploy(tb, tee.RaspberryPi3(), []int{2, 3, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	script, err := dep.Script(2)
	if err != nil {
		t.Fatal(err)
	}
	// The attacker's view of a run contains REE computation and transfers,
	// but no TEE computation and no result release.
	view := script.AttackerView()
	if len(view) == 0 {
		t.Fatal("attacker should observe REE activity")
	}
	sawTransfer, sawREE := false, false
	for _, e := range view {
		switch e.Kind {
		case tee.EvTEECompute, tee.EvResult:
			t.Fatalf("one-way property violated: attacker saw %v", e.Kind)
		case tee.EvTransfer:
			sawTransfer = true
		case tee.EvREECompute:
			sawREE = true
		}
	}
	if !sawTransfer || !sawREE {
		t.Fatal("attacker view missing expected REE-side events")
	}
}

func TestDeploymentSecureBytesSmallerThanBaseline(t *testing.T) {
	tb, victim := finalizedTB(t, 60)
	dep, err := Deploy(tb, tee.RaspberryPi3(), []int{1, 3, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	baseline := profile.Profile(victim, []int{1, 3, 16, 16}).SecureFootprintBytes()
	if dep.SecureBytes >= baseline {
		t.Fatalf("TBNet secure footprint %d ≥ baseline %d", dep.SecureBytes, baseline)
	}
}

func TestDeploymentMetersBothWorlds(t *testing.T) {
	tb, _ := finalizedTB(t, 70)
	dep, err := Deploy(tb, tee.RaspberryPi3(), []int{1, 3, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	script, err := dep.Script(1)
	if err != nil {
		t.Fatal(err)
	}
	var m tee.Meter
	m.Charge(script)
	if m.Flops(tee.REE) <= 0 || m.Flops(tee.TEE) <= 0 {
		t.Fatalf("meter did not record both worlds: %s", m.String())
	}
	// One switch per stage plus the input staging.
	wantSwitches := len(tb.MR.Stages) + 1
	if m.Switches() != wantSwitches {
		t.Fatalf("switches = %d, want %d", m.Switches(), wantSwitches)
	}
	if lat, _ := dep.ModeledLatency(1); lat <= 0 {
		t.Fatal("latency must be positive")
	}
}

func TestDeployRejectsOversizedModel(t *testing.T) {
	tb, _ := finalizedTB(t, 80)
	small := tee.WithSecureMem(tee.RaspberryPi3(), 1024) // 1 KiB: nothing fits
	if _, err := Deploy(tb, small, []int{1, 3, 16, 16}); err == nil {
		t.Fatal("deployment must fail when secure memory is too small")
	}
}

func TestEnclaveProtocolOrderEnforced(t *testing.T) {
	tb, _ := finalizedTB(t, 90)
	dep, err := Deploy(tb, tee.RaspberryPi3(), []int{1, 3, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	// Requesting a result before any inference must fail.
	if _, err := dep.Enclave.Result(); err == nil {
		t.Fatal("result before protocol completion must fail")
	}
	// Staging stage 1 before stage 0 must fail.
	if err := dep.Enclave.Invoke(CmdInput, randX(1, 91)); err != nil {
		t.Fatal(err)
	}
	if err := dep.Enclave.Invoke(1, randX(1, 92)); err == nil {
		t.Fatal("out-of-order stage must be rejected")
	}
}

func TestDeploySentinelErrors(t *testing.T) {
	tb, _ := finalizedTB(t, 110)
	if _, err := Deploy(tb, tee.RaspberryPi3(), []int{1, 3, 16}); !errors.Is(err, ErrShape) {
		t.Fatalf("rank-3 sample shape: err = %v, want ErrShape", err)
	}
	if _, err := Deploy(tb, tee.RaspberryPi3(), []int{1, 5, 16, 16}); !errors.Is(err, ErrShape) {
		t.Fatalf("wrong channels: err = %v, want ErrShape", err)
	}
	unfin := NewTwoBranch(tinyVictimVGG(4, 111), 112)
	if _, err := Deploy(unfin, tee.RaspberryPi3(), []int{1, 3, 16, 16}); !errors.Is(err, ErrNotFinalized) {
		t.Fatalf("unfinalized: err = %v, want ErrNotFinalized", err)
	}
	small := tee.WithSecureMem(tee.RaspberryPi3(), 1024)
	if _, err := Deploy(tb, small, []int{1, 3, 16, 16}); !errors.Is(err, ErrSecureMemory) {
		t.Fatalf("oversized: err = %v, want ErrSecureMemory", err)
	}

	dep, err := Deploy(tb, tee.RaspberryPi3(), []int{2, 3, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Infer(randX(3, 113)); !errors.Is(err, ErrShape) {
		t.Fatalf("over-capacity batch: err = %v, want ErrShape", err)
	}
	if _, err := dep.Infer(tensor.New(1, 3, 8, 8)); !errors.Is(err, ErrShape) {
		t.Fatalf("wrong spatial size: err = %v, want ErrShape", err)
	}
	if _, err := dep.Infer(nil); !errors.Is(err, ErrShape) {
		t.Fatalf("nil input: err = %v, want ErrShape", err)
	}
}

// TestInferResetsPerCall is the reentrancy regression at the session level:
// repeated and interrupted protocol runs must not leak stage state between
// calls.
func TestInferResetsPerCall(t *testing.T) {
	tb, _ := finalizedTB(t, 120)
	dep, err := Deploy(tb, tee.RaspberryPi3(), []int{1, 3, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	x := randX(1, 121)
	first, err := dep.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	// Leave the enclave mid-protocol, then run a normal inference: the
	// fresh input command must reset the stale stage counter.
	if err := dep.Enclave.Invoke(CmdInput, x.Clone()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := dep.Infer(x)
		if err != nil {
			t.Fatalf("call %d after interrupted protocol: %v", i, err)
		}
		if again[0] != first[0] {
			t.Fatalf("call %d: label %d != first call's %d", i, again[0], first[0])
		}
	}
}

// TestConcurrentInferOneDeployment runs parallel Infer calls against a single
// session under -race: the session serializes them and every caller sees the
// sequential result.
func TestConcurrentInferOneDeployment(t *testing.T) {
	tb, _ := finalizedTB(t, 130)
	dep, err := Deploy(tb, tee.RaspberryPi3(), []int{1, 3, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	xs := make([]*tensor.Tensor, callers)
	want := make([]int, callers)
	for i := range xs {
		xs[i] = randX(1, 131+uint64(i))
		labels, err := dep.Infer(xs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = labels[0]
	}
	var wg sync.WaitGroup
	got := make([]int, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			labels, err := dep.Infer(xs[i])
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = labels[0]
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if got[i] != want[i] {
			t.Fatalf("caller %d: concurrent label %d != sequential %d", i, got[i], want[i])
		}
	}
}

// TestReplicateIsIndependent locks what a replica is: a session of its own
// over the original's branches. It shares the immutable M_R, M_T and
// alignment maps, and owns its scratch — plan, enclave, meter — and its
// secure-memory reservation.
func TestReplicateIsIndependent(t *testing.T) {
	tb, _ := finalizedTB(t, 140)
	dep, err := Deploy(tb, tee.RaspberryPi3(), []int{1, 3, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	mem := tee.NewSecureMemory(tee.RaspberryPi3().SecureMemBytes())
	rep, err := dep.ReplicateOn(dep.Device, 4, mem)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.SampleShape(); got[0] != 4 {
		t.Fatalf("replica batch capacity = %d, want 4", got[0])
	}
	x := randX(1, 141)
	want, err := dep.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rep.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	if want[0] != got[0] {
		t.Fatalf("replica label %d != original %d", got[0], want[0])
	}
	if rep.mr != dep.mr || rep.prog.mt != dep.prog.mt || &rep.prog.align[0] != &dep.prog.align[0] {
		t.Fatal("replica copied the deployed branches instead of sharing them")
	}
	if rep.plan == dep.plan || rep.Enclave == dep.Enclave || rep.prog == dep.prog {
		t.Fatal("replica shares the original's session scratch")
	}
	if mem.Used() != rep.SecureBytes {
		t.Fatalf("replica reserved %d secure bytes from its accountant, want its own %d",
			mem.Used(), rep.SecureBytes)
	}
}

func TestExtractedMRIsACopy(t *testing.T) {
	tb, _ := finalizedTB(t, 100)
	dep, err := Deploy(tb, tee.RaspberryPi3(), []int{1, 3, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	stolen := dep.ExtractedMR()
	stolen.Stages[0].(*zoo.ConvBlock).Conv.W.Value.Fill(0)
	if tensor.MaxAbs(tb.MR.Stages[0].(*zoo.ConvBlock).Conv.W.Value.Data()) == 0 {
		t.Fatal("extraction must not alias the deployed branch")
	}
}

// paperRun is the protocol run of one inference at input shape in, as the
// paper describes it, derived here from the branches' stage geometry and
// profiles independently of the plan's script builder: the input crosses
// into the enclave; per stage, M_R computes in the REE, its feature map
// crosses and M_T computes in the TEE; M_T's head computes and the logits
// are released. Flops are priced at speedup over float32.
func paperRun(tb *TwoBranch, in []int, speedup float64) tee.Script {
	mr, mt := profile.Profile(tb.MR, in), profile.Profile(tb.MT, in)
	bytes := func(shape []int) int64 {
		n := int64(4)
		for _, d := range shape {
			n *= int64(d)
		}
		return n
	}
	s := tee.Script{
		{Kind: tee.EvSMC, World: tee.REE, Label: "input"},
		{Kind: tee.EvTransfer, World: tee.REE, Label: "input", Bytes: bytes(in)},
	}
	r, m := in, in
	for i, st := range tb.MR.Stages {
		r, m = st.OutShape(r), tb.MT.Stages[i].OutShape(m)
		s = append(s,
			tee.Step{Kind: tee.EvREECompute, World: tee.REE, Label: st.Name(), Flops: mr.Stages[i].Flops / speedup, Bytes: bytes(r)},
			tee.Step{Kind: tee.EvSMC, World: tee.REE, Label: st.Name()},
			tee.Step{Kind: tee.EvTransfer, World: tee.REE, Label: st.Name(), Bytes: bytes(r)},
			tee.Step{Kind: tee.EvTEECompute, World: tee.TEE, Label: tb.MT.Stages[i].Name(), Flops: mt.Stages[i].Flops / speedup, Bytes: bytes(m)})
	}
	return append(s,
		tee.Step{Kind: tee.EvTEECompute, World: tee.TEE, Label: tb.MT.Head.Name(), Flops: mt.Head.Flops / speedup},
		tee.Step{Kind: tee.EvResult, World: tee.TEE, Label: "release", Bytes: bytes(tb.MT.Head.OutShape(m))})
}

// recorder is a tee.Program that passes every call through to the program
// it wraps and keeps what actually crossed: each Invoke's payload bytes, in
// order, and each released result's bytes.
type recorder struct {
	tee.Program
	invoked, released []int64
}

func (r *recorder) Invoke(cmd int, payload *tensor.Tensor) error {
	r.invoked = append(r.invoked, 4*int64(payload.Size()))
	return r.Program.Invoke(cmd, payload)
}

func (r *recorder) Result() (*tensor.Tensor, error) {
	out, err := r.Program.Result()
	if err == nil {
		r.released = append(r.released, 4*int64(out.Size()))
	}
	return out, err
}

// crossings returns the bytes of s's EvTransfer steps, in order, and of its
// EvResult steps.
func crossings(s tee.Script) (transfers, results []int64) {
	for _, st := range s {
		switch st.Kind {
		case tee.EvTransfer:
			transfers = append(transfers, st.Bytes)
		case tee.EvResult:
			results = append(results, st.Bytes)
		}
	}
	return transfers, results
}

// TestModeledLatencyMatchesMeter holds a run to exactly its script: the
// plan's script of every batch is the paper's protocol (paperRun) and
// ModeledLatency(n) is what a meter charged with it reads on the session's
// footprint, for every zoo architecture, both precisions, every registered
// device and every batch up to the capacity; and what one n-sample
// inference actually hands the enclave, Invoke by Invoke, and what it
// releases are the script's transfer and result bytes.
func TestModeledLatencyMatchesMeter(t *testing.T) {
	const capacity = 8
	rng := tensor.NewRNG(41)
	models := map[string]*zoo.Model{
		"VGG18-S":     zoo.BuildVGG(zoo.VGG18Config(10), rng),
		"TinyVGG":     zoo.BuildVGG(zoo.TinyVGGConfig(10), rng),
		"ResNet20-S":  zoo.BuildResNet(zoo.ResNet20Config(10), true, rng),
		"MobileNet-S": zoo.BuildMobileNet(zoo.MobileNetSConfig(10), rng),
	}
	shape := []int{capacity, 3, 16, 16}
	x := tensor.New(shape...)
	rng.FillNormal(x, 0, 1)
	for name, victim := range models {
		tb := NewTwoBranch(victim, 42)
		tb.Finalized = true
		f32, err := Deploy(tb, tee.Unbounded(tee.RaspberryPi3()), shape)
		if err != nil {
			t.Fatal(err)
		}
		i8, err := DeployInt8(tb, tee.Unbounded(tee.RaspberryPi3()), shape)
		if err != nil {
			t.Fatal(err)
		}
		for _, dep := range []*Deployment{f32, i8} {
			rec := &recorder{Program: dep.Enclave}
			dep.Enclave = rec
			for n := 1; n <= capacity; n++ {
				what := fmt.Sprintf("%s %s, batch %d", name, dep.Precision(), n)
				rec.invoked, rec.released = nil, nil
				if _, err := dep.Infer(tensor.FromData(x.Data()[:n*3*16*16], n, 3, 16, 16)); err != nil {
					t.Fatal(err)
				}
				script, err := dep.Script(n)
				if err != nil {
					t.Fatal(err)
				}
				transfers, results := crossings(script)
				if !reflect.DeepEqual(rec.invoked, transfers) || !reflect.DeepEqual(rec.released, results) {
					t.Fatalf("%s: the run invoked %v and released %v, the script transfers %v and releases %v",
						what, rec.invoked, rec.released, transfers, results)
				}
				if got := dep.Samples(); got != n*(n+1)/2 {
					t.Fatalf("%s: the session counts %d samples, want %d", what, got, n*(n+1)/2)
				}
			}
			for _, dev := range tee.Devices() {
				speedup := 1.0
				if dep.Precision() == PrecisionInt8 {
					speedup = tee.Int8SpeedupOf(dev)
				}
				s, err := dep.ReplicateOn(tee.Unbounded(dev), capacity, nil)
				if err != nil {
					t.Fatal(err)
				}
				for n := 1; n <= capacity; n++ {
					what := fmt.Sprintf("%s %s on %s, batch %d", name, dep.Precision(), dev.Name(), n)
					script, err := s.Script(n)
					if err != nil {
						t.Fatal(err)
					}
					in := append([]int{n}, shape[1:]...)
					if want := paperRun(s.Snapshot(), in, speedup); !reflect.DeepEqual(script, want) {
						t.Fatalf("%s: script\n%v\nwant\n%v", what, script, want)
					}
					got, err := s.ModeledLatency(n)
					if err != nil {
						t.Fatal(err)
					}
					if want := script.Price(dev, s.SecureBytes); got != want || got <= 0 {
						t.Fatalf("%s: modeled %v, the script prices %v", what, got, want)
					}
				}
			}
		}
	}
}

// TestFailedRunChargesNothing: a run that fails part way through the
// protocol (here M_T's stage-1 alignment map selects one channel too few)
// adds nothing to the session's completed samples.
func TestFailedRunChargesNothing(t *testing.T) {
	tb, _ := finalizedTB(t, 140)
	bad := *tb
	bad.Align = append([][]int(nil), tb.Align...)
	if bad.Align[1] == nil {
		bad.Align[1] = make([]int, tb.MT.Stages[1].OutChannels()-1)
	} else {
		bad.Align[1] = bad.Align[1][:len(bad.Align[1])-1]
	}
	dep, err := Deploy(&bad, tee.RaspberryPi3(), []int{1, 3, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Infer(randX(1, 141)); !errors.Is(err, ErrShape) {
		t.Fatalf("bad alignment: err = %v, want ErrShape", err)
	}
	if got := dep.Samples(); got != 0 {
		t.Fatalf("failed run counted %d samples", got)
	}
}

// TestModeledLatencyChecksBatch: ModeledLatency and Script answer for 1..
// capacity and reject anything else with ErrShape instead of panicking.
func TestModeledLatencyChecksBatch(t *testing.T) {
	tb, _ := finalizedTB(t, 150)
	const capacity = 4
	dep, err := Deploy(tb, tee.RaspberryPi3(), []int{capacity, 3, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		n  int
		ok bool
	}{{0, false}, {1, true}, {capacity, true}, {capacity + 1, false}} {
		lat, err := dep.ModeledLatency(tc.n)
		_, serr := dep.Script(tc.n)
		if tc.ok != (err == nil) || tc.ok != (serr == nil) {
			t.Fatalf("batch %d: ModeledLatency err %v, Script err %v", tc.n, err, serr)
		}
		if !tc.ok && (!errors.Is(err, ErrShape) || !errors.Is(serr, ErrShape) || lat != 0) {
			t.Fatalf("batch %d: got %v, %v / %v, want ErrShape", tc.n, lat, err, serr)
		}
		if tc.ok && lat <= 0 {
			t.Fatalf("batch %d: price %v", tc.n, lat)
		}
	}
}
