// Package cliconf is the one place the tbnet binaries get from parsed flags
// to a running fleet: the model-source flags (-models, -registry) and their
// loader, the -precision, -pace and -obfuscate flags, and the fleet flag set
// (`tbnet fleet`, `tbnet scenario` and `tbnetd` register the same nine flags
// through AddFleetFlags and start their fleet through FleetFlags.Start). A
// spelling one binary accepts, every binary accepts; a value one rejects,
// every one rejects with the same message and — because the rejection is a
// UsageError — the same exit code.
package cliconf

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"tbnet"
	"tbnet/internal/seceval"
)

// UsageError marks a failure of the invocation itself — a flag value, a spec
// or a combination of flags the operator has to retype — as opposed to a
// failure of the work the invocation asked for. ExitCode maps it to exit 2.
type UsageError struct {
	err      error
	reported bool // the flag package already printed it (ParseFlags)
}

// Error returns the wrapped error's text unchanged.
func (e *UsageError) Error() string { return e.err.Error() }

// Unwrap exposes the wrapped error to errors.Is and errors.As.
func (e *UsageError) Unwrap() error { return e.err }

// Usage marks err as a usage error; nil stays nil.
func Usage(err error) error {
	if err == nil {
		return nil
	}
	return &UsageError{err: err}
}

// Usagef is Usage(fmt.Errorf(format, args...)).
func Usagef(format string, args ...any) error {
	return &UsageError{err: fmt.Errorf(format, args...)}
}

// ParseFlags parses args into fs. The flag package has already written a
// parse failure (or the -h text) to fs's output, so the usage error returned
// for it is one ExitCode does not print again.
func ParseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return &UsageError{err: err, reported: true}
	}
	return nil
}

// ExitCode is the binaries' one exit policy: it prints err to stderr and
// returns the process exit code — 0 for nil, 2 for a UsageError anywhere in
// err's chain, 1 for everything else.
func ExitCode(err error, stderr io.Writer) int {
	if err == nil {
		return 0
	}
	var ue *UsageError
	if errors.As(err, &ue) {
		if !ue.reported {
			fmt.Fprintln(stderr, err)
		}
		return 2
	}
	fmt.Fprintln(stderr, err)
	return 1
}

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
				return nil, Usagef("device spec %q: workers %q is not a number", spec, spec[at+1:])
			}
			name, workers = spec[:at], n
		}
		device, err := tbnet.DeviceByName(name)
		if err != nil {
			return nil, Usagef("device spec %q: %w", spec, err)
		}
		if workers < 1 {
			return nil, Usagef("device spec %q: workers %d < 1", spec, workers)
		}
		if pin > 0 {
			workers = pin
		}
		opts = append(opts, tbnet.WithDevice(device, workers))
	}
	if len(opts) == 0 {
		return nil, Usagef("empty device list")
	}
	return opts, nil
}

// parsePolicy maps a -policy name onto a fleet option selecting one of the
// built-in routing policies.
func parsePolicy(name string) (tbnet.FleetOption, error) {
	switch name {
	case "round-robin":
		return tbnet.WithPolicy(tbnet.RoundRobin()), nil
	case "least-loaded":
		return tbnet.WithPolicy(tbnet.LeastLoaded()), nil
	case "cost-aware":
		return tbnet.WithPolicy(tbnet.CostAware()), nil
	case "ewma":
		return tbnet.WithPolicy(tbnet.EWMA()), nil
	}
	return nil, Usagef("unknown policy %q (want round-robin, least-loaded, cost-aware, or ewma)", name)
}

// Model is one loaded -models entry: its serving name and its deployment.
type Model struct {
	// Name is the model's serving identity.
	Name string
	// Dep is the restored deployment.
	Dep *tbnet.Deployment
}

// ModelFlags holds the model-source flags: which saved deployments a command
// serves and where bare names resolve.
type ModelFlags struct {
	// Models is the -models list.
	Models string
	// Registry is the -registry directory.
	Registry string
}

// AddModelFlags registers -models and -registry on fs. registryUsage is the
// -registry help line, the one thing about the pair that differs per binary
// (the daemon also lists and swaps from the directory).
func AddModelFlags(fs *flag.FlagSet, registryUsage string) *ModelFlags {
	m := &ModelFlags{}
	fs.StringVar(&m.Models, "models", "", "serve saved models: name=artifact.tbd or registry names (comma-separated)")
	fs.StringVar(&m.Registry, "registry", "", registryUsage)
	return m
}

// Load loads the -models list: comma-separated entries, each either
// "name=artifact.tbd" (loaded from the file) or a bare "name" (loaded from
// the -registry directory; "name=" with nothing after it reads as bare). A
// non-nil device re-targets every loaded artifact onto that backend; nil
// keeps each artifact's saved device. A malformed list is a usage error; an
// artifact that fails to open or verify is not.
func (m *ModelFlags) Load(device tbnet.Device) ([]Model, error) {
	var reg *tbnet.Registry
	var out []Model
	for _, spec := range strings.Split(m.Models, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		name, path, _ := strings.Cut(spec, "=")
		if name == "" {
			return nil, Usagef("model spec %q: empty name", spec)
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
			if m.Registry == "" {
				return nil, Usagef("model spec %q names a registry entry but -registry is not set", spec)
			}
			if reg == nil {
				if reg, err = tbnet.OpenRegistry(m.Registry); err != nil {
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
		return nil, Usagef("empty model list")
	}
	return out, nil
}

// PrecisionFlag holds a -precision flag as typed.
type PrecisionFlag struct{ spec string }

// AddPrecisionFlag registers -precision (default f32) on fs under the given
// help line.
func AddPrecisionFlag(fs *flag.FlagSet, usage string) *PrecisionFlag {
	p := &PrecisionFlag{}
	fs.StringVar(&p.spec, "precision", "f32", usage)
	return p
}

// Parse validates the typed precision.
func (p *PrecisionFlag) Parse() (tbnet.Precision, error) {
	prec, err := tbnet.ParsePrecision(p.spec)
	return prec, Usage(err)
}

// Obfuscation holds the -obfuscate flag.
type Obfuscation struct {
	// Spec is the trace-obfuscation chain as typed, e.g. "pad:4096,dummy:0.25".
	Spec string
}

// AddObfuscateFlag registers -obfuscate on fs under the given help line.
func AddObfuscateFlag(fs *flag.FlagSet, usage string) *Obfuscation {
	o := &Obfuscation{}
	fs.StringVar(&o.Spec, "obfuscate", "", usage)
	return o
}

// Tap parses the chain and builds the run tap that applies it: every worker
// run's attacker-visible trace is rewritten through the chain and the
// chain's modeled cost charged back into the run's latency. The tap keeps at
// most runLimit rewritten views. A spec with no layers yields no tap, unless
// capture asks for one anyway to record the undefended views.
func (o *Obfuscation) Tap(seed int64, runLimit int, capture bool) (*seceval.Tap, error) {
	chain, err := seceval.ParseChain(o.Spec)
	if err != nil {
		return nil, Usage(err)
	}
	opts := []seceval.TapOption{seceval.WithSeed(seed), seceval.WithRunLimit(runLimit)}
	switch {
	case len(chain.Layers) > 0:
		opts = append(opts, seceval.WithObfuscation(chain))
	case !capture:
		return nil, nil
	}
	return seceval.NewTap(opts...), nil
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
// readable after the flag set parses (for log lines); Validate checks them
// and Start turns them into a running fleet.
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
	// (scenario's -sweep) sets it before calling Validate.
	Autoscale bool
	// AutoscaleMin and AutoscaleMax are the controller's per-node bounds.
	AutoscaleMin, AutoscaleMax int
	// AutoscaleInterval is the control-loop period.
	AutoscaleInterval time.Duration
	// Pace is -pace where AddPaceFlag registered it (0 = off).
	Pace float64
	// Precision is the parsed -precision, set by a successful Validate.
	Precision tbnet.Precision

	precision *PrecisionFlag
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
	f.precision = AddPrecisionFlag(fs,
		"serving precision of the model this command deploys: f32 or int8 (saved artifacts carry their own)")
	return f
}

// AddPaceFlag registers -pace on fs for the commands that drive a fleet with
// synthetic load (the daemon serves at host speed and has no such flag).
func (f *FleetFlags) AddPaceFlag(fs *flag.FlagSet) {
	fs.Float64Var(&f.Pace, "pace", 0, "pace workers at modeled-latency × this factor (0 = off)")
}

// Validate checks the parsed flags and leaves the parsed precision behind.
// It is cheap: the binaries call it before anything expensive (a pipeline
// build, an artifact load) starts. Every failure is a usage error.
func (f *FleetFlags) Validate() error {
	_, err := f.options(0)
	return err
}

// options validates the flags and translates them into fleet options: one
// WithDevice per -devices entry, the routing policy, the deadline, in-flight
// cap and pace when set, and the autoscale controller when Autoscale is on.
// A positive pin instead describes a statically provisioned fleet with every
// node at that width and no controller — the static legs of an autoscale
// sweep.
func (f *FleetFlags) options(pin int) ([]tbnet.FleetOption, error) {
	if f.Deadline < 0 || f.MaxInFlight < 0 {
		return nil, Usagef("invalid fleet flags: deadline %v, max-inflight %d", f.Deadline, f.MaxInFlight)
	}
	if f.Pace < 0 {
		return nil, Usagef("invalid fleet flags: pace %g", f.Pace)
	}
	if f.Autoscale && (f.AutoscaleMin < 1 || f.AutoscaleMax < f.AutoscaleMin || f.AutoscaleInterval <= 0) {
		return nil, Usagef("invalid autoscale flags: min %d, max %d, interval %v",
			f.AutoscaleMin, f.AutoscaleMax, f.AutoscaleInterval)
	}
	var err error
	if f.Precision, err = f.precision.Parse(); err != nil {
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
	if f.Pace > 0 {
		opts = append(opts, tbnet.WithPace(f.Pace))
	}
	if f.Autoscale && pin == 0 {
		opts = append(opts,
			tbnet.WithAutoscale(f.AutoscaleMin, f.AutoscaleMax),
			tbnet.WithAutoscaleInterval(f.AutoscaleInterval))
	}
	return opts, nil
}

// Start is the one flags→fleet assembly: it starts the fleet the flags
// describe (pinned to a static width when pin is positive) over hosted.
// hosted[0] is the replication template and serves as the default model, the
// rest are hosted under their names. A non-nil tracer records every request's
// span timeline, a non-nil tap observes every worker run, and extra carries
// whatever else the caller adds (the daemon's autoscale logger).
func (f *FleetFlags) Start(hosted []Model, pin int, tracer *tbnet.Tracer, tap *seceval.Tap,
	extra ...tbnet.FleetOption) (*tbnet.Fleet, error) {
	opts, err := f.options(pin)
	if err != nil {
		return nil, err
	}
	if tracer != nil {
		opts = append(opts, tbnet.WithTracing(tracer))
	}
	if tap != nil {
		opts = append(opts, tbnet.WithFleetTap(tap))
	}
	for _, m := range hosted[1:] {
		opts = append(opts, tbnet.WithModel(m.Name, m.Dep))
	}
	return tbnet.NewFleet(hosted[0].Dep, append(opts, extra...)...)
}
