package cliconf

import (
	"flag"
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

// TestParsers drives the three parsers every binary shares from one table:
// what each accepts (and how many entries it yields) and the message each
// rejection carries.
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
		return func(in string) (int, error) { m, err := LoadModels(in, reg, nil); return len(m), err }
	}
	for _, c := range []struct {
		kind  string
		parse func(string) (int, error)
		in    string
		n     int    // entries parsed on success
		err   string // substring of the rejection ("" = accepted)
	}{
		{"devices", devices, "rpi3:2,sgx-desktop:4,jetson-tz:2", 3, ""},
		{"devices", devices, " rpi3 , sgx-desktop:1 ,", 2, ""}, // bare name, stray spaces and commas
		{"devices", devices, "rpi3:2x", 0, `workers "2x" is not a number`},
		{"devices", devices, "rpi3:two", 0, `workers "two" is not a number`},
		{"devices", devices, "rpi3:0", 0, "workers 0 < 1"},
		{"devices", devices, "rpi3:-1", 0, "workers -1 < 1"},
		{"devices", devices, "", 0, "empty device list"},
		{"devices", devices, " , ", 0, "empty device list"},
		{"devices", devices, "abacus:2", 0, `device spec "abacus:2"`},

		{"policy", policy, "round-robin", 1, ""},
		{"policy", policy, "least-loaded", 1, ""},
		{"policy", policy, "cost-aware", 1, ""},
		{"policy", policy, "ewma", 1, ""},
		{"policy", policy, "darts", 0, `unknown policy "darts"`},
		{"policy", policy, "", 0, `unknown policy ""`},

		{"models", models(""), "a=" + file, 1, ""},
		{"models", models(regDir), "a=" + file + ", stored", 2, ""},
		{"models", models(regDir), "stored=", 1, ""}, // nothing after "=": a registry name
		{"models", models(""), "stored", 0, "-registry is not set"},
		{"models", models(""), "stored=", 0, "-registry is not set"},
		{"models", models(regDir), "ghost", 0, `model "ghost"`},
		{"models", models(""), "a=/nonexistent.tbd", 0, `model "a"`},
		{"models", models(""), "=" + file, 0, "empty name"},
		{"models", models(regDir), "", 0, "empty model list"},
	} {
		n, err := c.parse(c.in)
		switch {
		case c.err == "" && (err != nil || n != c.n):
			t.Errorf("%s %q: %d entries, err %v; want %d entries", c.kind, c.in, n, err, c.n)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("%s %q: err %v, want one containing %q", c.kind, c.in, err, c.err)
		}
	}
}

// TestFleetFlagsOptions: the registered flags parse into the options they
// describe — pinned widths drop the controller, a re-targeted device is
// honoured by LoadModels, and Options leaves the parsed precision behind.
func TestFleetFlagsOptions(t *testing.T) {
	file, _ := savedModel(t)
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	ff := AddFleetFlags(fs, FleetDefaults{Devices: "rpi3:2", AutoscaleInterval: 50 * time.Millisecond})
	if err := fs.Parse([]string{"-devices", "rpi3:1,sgx-desktop:3", "-policy", "ewma", "-deadline", "1s",
		"-autoscale", "-autoscale-max", "4", "-precision", "int8"}); err != nil {
		t.Fatal(err)
	}
	sgx, err := tbnet.DeviceByName("sgx-desktop")
	if err != nil {
		t.Fatal(err)
	}
	ms, err := LoadModels("m="+file, "", sgx)
	if err != nil {
		t.Fatal(err)
	}
	if got := ms[0].Dep.Device.Name(); got != "sgx-desktop" {
		t.Errorf("re-targeted model sits on %q", got)
	}
	for _, c := range []struct {
		pin, workers int
		autoscaled   bool
	}{{0, 4, true}, {3, 6, false}} {
		opts, err := ff.Options(c.pin)
		if err != nil {
			t.Fatal(err)
		}
		if ff.Precision != tbnet.PrecisionInt8 {
			t.Errorf("Precision = %q after Options", ff.Precision)
		}
		f, err := tbnet.NewFleet(ms[0].Dep, opts...)
		if err != nil {
			t.Fatal(err)
		}
		st := f.Stats()
		if st.Devices != 2 || st.Workers != c.workers || st.Policy != "ewma" ||
			(tbnet.FleetAutoscaler(f) != nil) != c.autoscaled {
			t.Errorf("pin %d: %d devices, %d workers, policy %q, autoscaler %v", c.pin,
				st.Devices, st.Workers, st.Policy, tbnet.FleetAutoscaler(f) != nil)
		}
		f.Close()
	}
}
