package cliconf

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tbnet"
	"tbnet/internal/core"
	"tbnet/internal/tensor"
	"tbnet/internal/zoo"
)

// savedModel writes a tiny untrained deployment to dir/m.tbd and into a
// registry at dir/reg under the name "stored".
func savedModel(t *testing.T) (file, regDir string) {
	t.Helper()
	tb := core.NewTwoBranch(zoo.BuildVGG(zoo.TinyVGGConfig(4), tensor.NewRNG(1)), 2)
	tb.Finalized = true
	dep, err := tbnet.Deploy(tb, tbnet.RaspberryPi3(), []int{1, 3, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	file = filepath.Join(dir, "m.tbd")
	f, err := os.Create(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbnet.SaveDeployment(f, dep); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	regDir = filepath.Join(dir, "reg")
	reg, err := tbnet.OpenRegistry(regDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Save("stored", dep); err != nil {
		t.Fatal(err)
	}
	return file, regDir
}

// TestParsers drives the parsers every binary shares from one table: what
// each accepts (and how many entries it yields), the message each rejection
// carries, and whether the rejection is a usage error.
func TestParsers(t *testing.T) {
	file, regDir := savedModel(t)
	devices := func(in string) (int, error) { o, err := parseDevices(in, 0); return len(o), err }
	policy := func(in string) (int, error) {
		o, err := parsePolicy(in)
		if o == nil {
			return 0, err
		}
		return 1, err
	}
	models := func(reg string) func(string) (int, error) {
		return func(in string) (int, error) {
			m, err := (&ModelFlags{Models: in, Registry: reg}).Load(nil)
			return len(m), err
		}
	}
	// tapped reports 1 when the chain yields a tap, 0 when it yields none.
	tapped := func(capture bool) func(string) (int, error) {
		return func(in string) (int, error) {
			tap, err := (&Obfuscation{Spec: in}).Tap(1, 4, capture)
			if tap == nil {
				return 0, err
			}
			return 1, err
		}
	}
	precision := func(in string) (int, error) {
		_, err := (&PrecisionFlag{spec: in}).Parse()
		return 0, err
	}
	for _, c := range []struct {
		kind  string
		parse func(string) (int, error)
		in    string
		n     int    // entries parsed on success
		err   string // substring of the rejection ("" = accepted)
		usage bool   // the rejection is a UsageError (exit 2), not a failure (exit 1)
	}{
		{"devices", devices, "rpi3:2,sgx-desktop:4,jetson-tz:2", 3, "", false},
		{"devices", devices, " rpi3 , sgx-desktop:1 ,", 2, "", false}, // bare name, stray spaces and commas
		{"devices", devices, "rpi3:2x", 0, `workers "2x" is not a number`, true},
		{"devices", devices, "rpi3:two", 0, `workers "two" is not a number`, true},
		{"devices", devices, "rpi3:0", 0, "workers 0 < 1", true},
		{"devices", devices, "rpi3:-1", 0, "workers -1 < 1", true},
		{"devices", devices, "", 0, "empty device list", true},
		{"devices", devices, " , ", 0, "empty device list", true},
		{"devices", devices, "abacus:2", 0, `device spec "abacus:2"`, true},

		{"policy", policy, "round-robin", 1, "", false},
		{"policy", policy, "least-loaded", 1, "", false},
		{"policy", policy, "cost-aware", 1, "", false},
		{"policy", policy, "ewma", 1, "", false},
		{"policy", policy, "darts", 0, `unknown policy "darts"`, true},
		{"policy", policy, "", 0, `unknown policy ""`, true},

		// A malformed -models list is the operator's to retype; an artifact
		// that will not load is a failure of the work.
		{"models", models(""), "a=" + file, 1, "", false},
		{"models", models(regDir), "a=" + file + ", stored", 2, "", false},
		{"models", models(regDir), "stored=", 1, "", false}, // nothing after "=": a registry name
		{"models", models(""), "stored", 0, "-registry is not set", true},
		{"models", models(""), "stored=", 0, "-registry is not set", true},
		{"models", models(regDir), "ghost", 0, `model "ghost"`, false},
		{"models", models(""), "a=/nonexistent.tbd", 0, `model "a"`, false},
		{"models", models(""), "=" + file, 0, "empty name", true},
		{"models", models(regDir), "", 0, "empty model list", true},

		// An empty chain is no tap unless the caller captures anyway; a bad
		// one is rejected in seceval.ParseChain's own words.
		{"obfuscate", tapped(false), "pad:4096,dummy:0.25", 1, "", false},
		{"obfuscate", tapped(false), "", 0, "", false},
		{"obfuscate", tapped(false), "none", 0, "", false},
		{"obfuscate", tapped(true), "", 1, "", false},
		{"obfuscate", tapped(false), "pad:0", 0, `seceval: pad quantum "0" (want positive bytes)`, true},
		{"obfuscate", tapped(true), "fog:3", 0, `seceval: unknown obfuscation layer "fog:3"`, true},

		{"precision", precision, "f32", 0, "", false},
		{"precision", precision, "int8", 0, "", false},
		{"precision", precision, "fp4", 0, `unknown precision "fp4"`, true},
	} {
		n, err := c.parse(c.in)
		switch {
		case c.err == "" && (err != nil || n != c.n):
			t.Errorf("%s %q: %d entries, err %v; want %d entries", c.kind, c.in, n, err, c.n)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("%s %q: err %v, want one containing %q", c.kind, c.in, err, c.err)
		}
		var ue *UsageError
		if errors.As(err, &ue) != c.usage {
			t.Errorf("%s %q: err %v, usage error = %v, want %v", c.kind, c.in, err, !c.usage, c.usage)
		}
	}
}

// TestFleetFlagsOptions: the registered flags start the fleet they describe —
// pinned widths drop the controller, a re-targeted device is honoured by
// Load, Validate leaves the parsed precision behind, hosted[1:] are served
// under their names, and a tracer and tap handed to Start see the traffic.
func TestFleetFlagsOptions(t *testing.T) {
	file, _ := savedModel(t)
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	ff := AddFleetFlags(fs, FleetDefaults{Devices: "rpi3:2", AutoscaleInterval: 50 * time.Millisecond})
	ff.AddPaceFlag(fs)
	mf := AddModelFlags(fs, "registry")
	if err := ParseFlags(fs, []string{"-devices", "rpi3:1,sgx-desktop:3", "-policy", "ewma", "-deadline", "1s",
		"-autoscale", "-autoscale-max", "4", "-precision", "int8",
		"-models", "m=" + file + ",canary=" + file}); err != nil {
		t.Fatal(err)
	}
	sgx, err := tbnet.DeviceByName("sgx-desktop")
	if err != nil {
		t.Fatal(err)
	}
	ms, err := mf.Load(sgx)
	if err != nil {
		t.Fatal(err)
	}
	if got := ms[0].Dep.Device.Name(); got != "sgx-desktop" {
		t.Errorf("re-targeted model sits on %q", got)
	}
	if err := ff.Validate(); err != nil || ff.Precision != tbnet.PrecisionInt8 {
		t.Fatalf("Validate: err %v, Precision %q", err, ff.Precision)
	}
	for _, c := range []struct {
		pin, workers int
		autoscaled   bool
	}{{0, 4, true}, {3, 6, false}} {
		tracer := tbnet.NewTracer(8)
		tap, err := (&Obfuscation{Spec: "pad:4096"}).Tap(1, 8, false)
		if err != nil {
			t.Fatal(err)
		}
		f, err := ff.Start(ms, c.pin, tracer, tap)
		if err != nil {
			t.Fatal(err)
		}
		x := tbnet.NewTensor(1, 3, 16, 16)
		if _, err := f.InferModel(context.Background(), "canary", x); err != nil {
			t.Errorf("pin %d: named model: %v", c.pin, err)
		}
		st := f.Stats()
		if st.Devices != 2 || st.Workers != c.workers || st.Policy != "ewma" ||
			(tbnet.FleetAutoscaler(f) != nil) != c.autoscaled {
			t.Errorf("pin %d: %d devices, %d workers, policy %q, autoscaler %v", c.pin,
				st.Devices, st.Workers, st.Policy, tbnet.FleetAutoscaler(f) != nil)
		}
		if len(st.Models) != 2 || st.Models[0].Name != tbnet.DefaultModel || st.Models[1].Name != "canary" {
			t.Errorf("pin %d: hosted models %+v, want default + canary", c.pin, st.Models)
		}
		f.Close()
		if runs := tap.Runs(); len(runs) != 1 || runs[0].Model != "canary" {
			t.Errorf("pin %d: tap saw %d runs, want the one canary run", c.pin, len(runs))
		}
		if spans := tracer.Snapshot(0, 0); len(spans) != 1 || spans[0].Model != "canary" {
			t.Errorf("pin %d: tracer holds %d spans, want the one canary request", c.pin, len(spans))
		}
	}
	ff.Pace = -1
	if err := ff.Validate(); err == nil || ExitCode(err, io.Discard) != 2 {
		t.Errorf("negative -pace: Validate = %v, want a usage error", err)
	}
}

// TestExitCode: the one exit policy — nil is 0, a usage error anywhere in the
// chain is 2, anything else 1 — and a parse failure the flag package already
// printed is not printed twice.
func TestExitCode(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	var flagOut bytes.Buffer
	fs.SetOutput(&flagOut)
	for _, c := range []struct {
		err    error
		code   int
		stderr string
	}{
		{nil, 0, ""},
		{errors.New("disk full"), 1, "disk full\n"},
		{Usagef("bad %s", "flag"), 2, "bad flag\n"},
		{fmt.Errorf("leg 3: %w", Usage(errors.New("bad width"))), 2, "leg 3: bad width\n"},
		{ParseFlags(fs, []string{"-bogus"}), 2, ""},
	} {
		var stderr bytes.Buffer
		if code := ExitCode(c.err, &stderr); code != c.code || stderr.String() != c.stderr {
			t.Errorf("ExitCode(%v) = %d, stderr %q; want %d, %q", c.err, code, stderr.String(), c.code, c.stderr)
		}
	}
	if !strings.Contains(flagOut.String(), "-bogus") {
		t.Errorf("flag package output %q lacks the parse failure", flagOut.String())
	}
}
