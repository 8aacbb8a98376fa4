package core

import (
	"errors"
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
	if _, err := dep.Infer(randX(2, 51)); err != nil {
		t.Fatal(err)
	}
	// The attacker's view of the trace contains REE computation and
	// transfers, but no TEE computation and no result release.
	view := dep.Enclave.Trace().AttackerView()
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
	if _, err := dep.Infer(randX(1, 71)); err != nil {
		t.Fatal(err)
	}
	m := dep.Enclave.Meter()
	if m.Flops(tee.REE) <= 0 || m.Flops(tee.TEE) <= 0 {
		t.Fatalf("meter did not record both worlds: %s", m.String())
	}
	// One switch per stage plus the input staging.
	wantSwitches := len(tb.MR.Stages) + 1
	if m.Switches() != wantSwitches {
		t.Fatalf("switches = %d, want %d", m.Switches(), wantSwitches)
	}
	if dep.Latency() <= 0 {
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
	if err := dep.Enclave.Invoke(CmdInput, "input", randX(1, 91)); err != nil {
		t.Fatal(err)
	}
	if err := dep.Enclave.Invoke(1, "skip-ahead", randX(1, 92)); err == nil {
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
	if err := dep.Enclave.Invoke(CmdInput, "input", x.Clone()); err != nil {
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

func TestReplicateIsIndependent(t *testing.T) {
	tb, _ := finalizedTB(t, 140)
	dep, err := Deploy(tb, tee.RaspberryPi3(), []int{1, 3, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := dep.Replicate(4)
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
	// Mutating the replica's extracted branch must not touch the original,
	// and the replica's meter is its own.
	rep.mr.Stages[0].(*zoo.ConvBlock).Conv.W.Value.Fill(0)
	if tensor.MaxAbs(tb.MR.Stages[0].(*zoo.ConvBlock).Conv.W.Value.Data()) == 0 {
		t.Fatal("replica aliases the original model")
	}
	if rep.Enclave.Meter() == dep.Enclave.Meter() {
		t.Fatal("replica shares the original meter")
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
