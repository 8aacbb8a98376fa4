// Package cliconf is the one place the tbnet binaries turn command-line text
// into serving configuration: the -devices, -policy and -models parsers, and
// the fleet flag set (`tbnet fleet`, `tbnet scenario` and `tbnetd` register
// the same nine flags through AddFleetFlags and get validated
// tbnet.FleetOptions back). A spelling one binary accepts, every binary
// accepts; a value one rejects, every one rejects with the same message.
package cliconf

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"tbnet"
)

// parseDevices parses a name:workers list like
// "rpi3:2,sgx-desktop:4,jetson-tz:2" into one WithDevice option per entry. A
// bare name gets the default pool width of 2; a positive pin overrides every
// entry's width. Names and widths are validated here, so a typo fails before
// anything expensive (a pipeline build, an artifact load) starts.
func parseDevices(list string, pin int) ([]tbnet.FleetOption, error) {
	var opts []tbnet.FleetOption
	for _, spec := range strings.Split(list, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		name, workers := spec, 2
		if at := strings.LastIndex(spec, ":"); at >= 0 {
			n, err := strconv.Atoi(spec[at+1:])
			if err != nil {
				return nil, fmt.Errorf("device spec %q: workers %q is not a number", spec, spec[at+1:])
			}
			name, workers = spec[:at], n
		}
		if _, err := tbnet.DeviceByName(name); err != nil {
			return nil, fmt.Errorf("device spec %q: %w", spec, err)
		}
		if workers < 1 {
			return nil, fmt.Errorf("device spec %q: workers %d < 1", spec, workers)
		}
		if pin > 0 {
			workers = pin
		}
		opts = append(opts, tbnet.WithDevice(name, workers))
	}
	if len(opts) == 0 {
		return nil, fmt.Errorf("empty device list")
	}
	return opts, nil
}

// parsePolicy maps a -policy name onto a fleet option: one of the built-in
// routing policies, or "ewma", which also installs the online latency
// estimator the adaptive policy learns from.
func parsePolicy(name string) (tbnet.FleetOption, error) {
	switch name {
	case "round-robin":
		return tbnet.WithPolicy(tbnet.RoundRobin()), nil
	case "least-loaded":
		return tbnet.WithPolicy(tbnet.LeastLoaded()), nil
	case "cost-aware":
		return tbnet.WithPolicy(tbnet.CostAware()), nil
	case "ewma":
		return tbnet.WithEWMARouting(0), nil
	}
	return nil, fmt.Errorf("unknown policy %q (want round-robin, least-loaded, cost-aware, or ewma)", name)
}

// Model is one loaded -models entry: its serving name and its deployment.
type Model struct {
	// Name is the model's serving identity.
	Name string
	// Dep is the restored deployment.
	Dep *tbnet.Deployment
}

// LoadModels loads a -models list: comma-separated entries, each either
// "name=artifact.tbd" (loaded from the file) or a bare "name" (loaded from
// the registry at regDir; "name=" with nothing after it reads as bare). A
// non-nil device re-targets every loaded artifact onto that backend; nil
// keeps each artifact's saved device.
func LoadModels(list, regDir string, device tbnet.Device) ([]Model, error) {
	var reg *tbnet.Registry
	var out []Model
	for _, spec := range strings.Split(list, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		name, path, _ := strings.Cut(spec, "=")
		if name == "" {
			return nil, fmt.Errorf("model spec %q: empty name", spec)
		}
		var dep *tbnet.Deployment
		var err error
		if path != "" {
			var f *os.File
			if f, err = os.Open(path); err == nil {
				dep, err = tbnet.LoadDeploymentOn(f, device)
				f.Close()
			}
		} else {
			if regDir == "" {
				return nil, fmt.Errorf("model spec %q names a registry entry but -registry is not set", spec)
			}
			if reg == nil {
				if reg, err = tbnet.OpenRegistry(regDir); err != nil {
					return nil, err
				}
			}
			dep, err = reg.LoadOn(name, device)
		}
		if err != nil {
			return nil, fmt.Errorf("model %q: %w", name, err)
		}
		out = append(out, Model{Name: name, Dep: dep})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty model list")
	}
	return out, nil
}

// FleetDefaults are the shared fleet flags' per-binary defaults: everything
// else about the nine flags is the same in every binary.
type FleetDefaults struct {
	// Devices is the default -devices list.
	Devices string
	// AutoscaleInterval is the default -autoscale-interval.
	AutoscaleInterval time.Duration
}

// FleetFlags holds the values of the shared fleet flags. The fields are
// readable after the flag set parses (for log lines); Options validates them
// and turns them into fleet options.
type FleetFlags struct {
	// Devices is the -devices list.
	Devices string
	// Policy is the -policy name.
	Policy string
	// Deadline is the -deadline per-request bound (0 = none).
	Deadline time.Duration
	// MaxInFlight is the -max-inflight cap (0 = capacity-weighted default).
	MaxInFlight int
	// Autoscale is -autoscale; a caller whose mode implies the controller
	// (scenario's -sweep) sets it before calling Options.
	Autoscale bool
	// AutoscaleMin and AutoscaleMax are the controller's per-node bounds.
	AutoscaleMin, AutoscaleMax int
	// AutoscaleInterval is the control-loop period.
	AutoscaleInterval time.Duration
	// Precision is the parsed -precision, set by a successful Options call.
	Precision tbnet.Precision

	precision string // -precision as typed
}

// AddFleetFlags registers the shared fleet flags (-devices -policy -deadline
// -max-inflight -autoscale -autoscale-min -autoscale-max -autoscale-interval
// -precision) on fs and returns their destination.
func AddFleetFlags(fs *flag.FlagSet, d FleetDefaults) *FleetFlags {
	f := &FleetFlags{}
	fs.StringVar(&f.Devices, "devices", d.Devices, "attached devices as name:workers pairs")
	fs.StringVar(&f.Policy, "policy", "cost-aware", "routing policy: round-robin, least-loaded, cost-aware, ewma")
	fs.DurationVar(&f.Deadline, "deadline", 0, "per-request deadline (0 = none); overdue requests are shed")
	fs.IntVar(&f.MaxInFlight, "max-inflight", 0, "fleet-wide in-flight cap (0 = capacity-weighted default)")
	fs.BoolVar(&f.Autoscale, "autoscale", false, "run the elastic autoscaler over the fleet")
	fs.IntVar(&f.AutoscaleMin, "autoscale-min", 1, "autoscaler per-node worker floor")
	fs.IntVar(&f.AutoscaleMax, "autoscale-max", 8, "autoscaler per-node worker ceiling")
	fs.DurationVar(&f.AutoscaleInterval, "autoscale-interval", d.AutoscaleInterval, "autoscaler control-loop period")
	fs.StringVar(&f.precision, "precision", "f32",
		"serving precision of the model this command deploys: f32 or int8 (saved artifacts carry their own)")
	return f
}

// Options validates the parsed flags and translates them into fleet options:
// one WithDevice per -devices entry, the routing policy, the deadline and
// in-flight cap when set, and the autoscale controller when Autoscale is on.
// A positive pin instead builds a statically provisioned fleet with every
// node at that width and no controller — the static legs of an autoscale
// sweep. Every validation failure is a usage error (exit 2 in the binaries).
func (f *FleetFlags) Options(pin int) ([]tbnet.FleetOption, error) {
	if f.Deadline < 0 || f.MaxInFlight < 0 {
		return nil, fmt.Errorf("invalid fleet flags: deadline %v, max-inflight %d", f.Deadline, f.MaxInFlight)
	}
	if f.Autoscale && (f.AutoscaleMin < 1 || f.AutoscaleMax < f.AutoscaleMin || f.AutoscaleInterval <= 0) {
		return nil, fmt.Errorf("invalid autoscale flags: min %d, max %d, interval %v",
			f.AutoscaleMin, f.AutoscaleMax, f.AutoscaleInterval)
	}
	var err error
	if f.Precision, err = tbnet.ParsePrecision(f.precision); err != nil {
		return nil, err
	}
	opts, err := parseDevices(f.Devices, pin)
	if err != nil {
		return nil, err
	}
	policy, err := parsePolicy(f.Policy)
	if err != nil {
		return nil, err
	}
	opts = append(opts, policy)
	if f.Deadline > 0 {
		opts = append(opts, tbnet.WithDeadline(f.Deadline))
	}
	if f.MaxInFlight > 0 {
		opts = append(opts, tbnet.WithMaxInFlight(f.MaxInFlight))
	}
	if f.Autoscale && pin == 0 {
		opts = append(opts,
			tbnet.WithAutoscale(f.AutoscaleMin, f.AutoscaleMax),
			tbnet.WithAutoscaleInterval(f.AutoscaleInterval))
	}
	return opts, nil
}
