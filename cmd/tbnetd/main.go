// Command tbnetd is TBNet's network-facing inference daemon: it assembles a
// heterogeneous serving fleet (from saved artifacts, a registry, or a built-in
// demo model), wraps it in the httpd middleware chain, and serves the HTTP/JSON
// API — /v1/infer, /v1/infer/batch, /v1/models, swap-over-HTTP, /healthz, and
// Prometheus /metrics — until SIGTERM/SIGINT, when it drains gracefully:
// in-flight requests finish, nothing admitted is dropped.
//
// Typical invocations:
//
//	tbnetd -demo -addr :8080
//	tbnetd -models edge=vgg.tbd,big=resnet.tbd -devices rpi3:2,sgx-desktop:4 \
//	       -policy cost-aware -deadline 50ms -api-keys secret=tenant-a -rate 200
//	tbnetd -demo -policy ewma -autoscale -autoscale-min 1 -autoscale-max 8
//	tbnetd -demo -precision int8        # quantized serving path for the demo model
//
// With -autoscale the fleet runs elastically: a closed-loop controller widens
// and narrows every node's worker pool between -autoscale-min and
// -autoscale-max from live load signals, each scaling event is logged, and
// the controller's counters are exported on /metrics
// (tbnet_autoscale_*).
//
// With -obfuscate the daemon serves behind a trace-obfuscation chain
// (internal/seceval): every worker run's attacker-visible event view is
// rewritten — transfer sizes padded, event order shuffled, dummy operations
// injected — and the chain's modeled latency cost is charged back into each
// run, with the per-layer spend exported as tbnet_obfuscation_* counters.
//
// The daemon is observable end to end: every request records a span timeline
// (ingress → queued → batched → ree/tee → pace → respond) into a bounded ring
// sized by -trace-ring, readable as JSON on GET /debug/trace (?min_ms= filters
// by wall time; the X-Request-Id echoes back as the span's id); latency
// distributions export as Prometheus histograms with request-id exemplars;
// requests slower than -slow-log are journaled with their stage breakdown; and
// -pprof mounts net/http/pprof under /debug/pprof/. The debug surface honours
// -api-keys: with auth enabled, timelines and profiles need a key.
//
// The bound address is printed on stderr and, with -addr-file, written to a
// file — so harnesses can start the daemon on ":0" and discover the port.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tbnet"
	"tbnet/internal/buildinfo"
	"tbnet/internal/cliconf"
	"tbnet/internal/core"
	"tbnet/internal/httpd"
	"tbnet/internal/registry"
	"tbnet/internal/tensor"
	"tbnet/internal/zoo"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// demoDeployment builds a small untrained two-branch model and deploys it —
// instant to construct, so the daemon can come up without any artifact for
// smoke tests and demos. Outputs are deterministic in the seed. The precision
// knob selects the f32 or int8 serving path, matching `tbnet serve`.
func demoDeployment(seed uint64, precision tbnet.Precision) (*tbnet.Deployment, error) {
	victim := zoo.BuildVGG(zoo.TinyVGGConfig(4), tensor.NewRNG(seed))
	tb := core.NewTwoBranch(victim, seed+1)
	tb.Finalized = true
	if precision == tbnet.PrecisionInt8 {
		return core.DeployInt8(tb, tbnet.RaspberryPi3(), []int{1, 3, 16, 16})
	}
	return core.Deploy(tb, tbnet.RaspberryPi3(), []int{1, 3, 16, 16})
}

// parseAPIKeys parses "key=tenant" pairs into the auth table.
func parseAPIKeys(list string) (map[string]string, error) {
	if list == "" {
		return nil, nil
	}
	keys := make(map[string]string)
	for _, spec := range strings.Split(list, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		at := strings.IndexByte(spec, '=')
		if at <= 0 || at == len(spec)-1 {
			return nil, fmt.Errorf("API key spec %q: want key=tenant", spec)
		}
		keys[spec[:at]] = spec[at+1:]
	}
	return keys, nil
}

// run executes the daemon and maps its outcome onto the exit code
// (cliconf.ExitCode: usage errors 2, failures 1); factored from main so tests
// can drive a full start → serve → SIGTERM → drain cycle in-process.
func run(args []string, stderr io.Writer) int {
	return cliconf.ExitCode(serve(args, stderr), stderr)
}

// serve is the daemon body: parse, validate, assemble the fleet, listen,
// and drain on a signal.
func serve(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("tbnetd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:0", "listen address (host:port; port 0 picks a free port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening")
	ff := cliconf.AddFleetFlags(fs, cliconf.FleetDefaults{
		Devices:           "rpi3:2,sgx-desktop:2",
		AutoscaleInterval: 250 * time.Millisecond,
	})
	mf := cliconf.AddModelFlags(fs, "model registry directory (lists on /v1/models, resolves ?from= swaps)")
	demo := fs.Bool("demo", false, "serve a small untrained demo model (no artifacts needed)")
	seed := fs.Uint64("seed", 1, "demo model seed")
	apiKeys := fs.String("api-keys", "", "API keys as key=tenant pairs (empty disables auth)")
	rate := fs.Float64("rate", 0, "per-tenant sustained request rate limit (0 = unlimited)")
	burst := fs.Int("burst", 0, "per-tenant burst allowance (0 = ceil(rate))")
	idleTTL := fs.Duration("idle-ttl", 0, "reap hosted models idle for this long (0 = never)")
	retryAfter := fs.Duration("retry-after", time.Second, "Retry-After hint on 429/503 answers")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful-drain budget on shutdown")
	obfuscate := cliconf.AddObfuscateFlag(fs,
		"trace-obfuscation chain applied to every run's attacker view, e.g. pad:4096,dummy:0.25 (exports tbnet_obfuscation_* on /metrics)")
	traceRing := fs.Int("trace-ring", 4096, "request span ring capacity for GET /debug/trace (0 disables tracing)")
	slowLog := fs.Duration("slow-log", 250*time.Millisecond, "journal requests slower than this with their span breakdown (0 disables)")
	pprofOn := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (behind auth when -api-keys is set)")
	version := fs.Bool("version", false, "print the release and Go toolchain versions and exit")
	if err := cliconf.ParseFlags(fs, args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintf(stderr, "tbnetd %s (%s)\n", tbnet.Version, buildinfo.GoVersion())
		return nil
	}
	if *traceRing < 0 {
		return cliconf.Usagef("invalid -trace-ring %d: want 0 (off) or a positive capacity", *traceRing)
	}
	log := slog.New(slog.NewTextHandler(stderr, nil))

	// Everything cheap to validate fails before any model loads.
	if err := ff.Validate(); err != nil {
		return err
	}
	keys, err := parseAPIKeys(*apiKeys)
	if err != nil {
		return cliconf.Usage(err)
	}
	if mf.Models == "" && !*demo {
		return cliconf.Usagef("nothing to serve: give -models (or -registry names), or -demo")
	}
	// With -obfuscate, a tap on every worker run rewrites the attacker-visible
	// trace through the chain and charges the modeled cost back into the run's
	// latency, so pacing, percentiles, and autoscaling all price the defense.
	// The daemon only needs the aggregate spend (for /metrics), not the
	// rewritten views, so the record buffer is kept minimal.
	tap, err := obfuscate.Tap(int64(*seed), 1, false)
	if err != nil {
		return err
	}

	var hosted []cliconf.Model
	if mf.Models != "" {
		hosted, err = mf.Load(nil)
	} else {
		var dep *tbnet.Deployment
		dep, err = demoDeployment(*seed, ff.Precision)
		hosted = []cliconf.Model{{Name: "demo", Dep: dep}}
	}
	if err != nil {
		return err
	}

	// One tracer is shared by the fleet's workers and the HTTP layer: the
	// middleware starts each request's span, the worker that executes it
	// fills in the queue/batch/world stages, and GET /debug/trace reads the
	// ring back.
	var tracer *tbnet.Tracer
	if *traceRing > 0 {
		tracer = tbnet.NewTracer(*traceRing)
	}
	var extra []tbnet.FleetOption
	if ff.Autoscale {
		// Scaling events go to the operator log as they happen; the counters
		// live on /metrics.
		extra = append(extra, tbnet.WithAutoscaleLogger(func(ev tbnet.AutoscaleEvent) {
			log.Info("autoscale", "action", string(ev.Action), "node", ev.Node,
				"from", ev.From, "to", ev.To, "workers", ev.TotalWorkers, "reason", ev.Reason)
		}))
	}
	f, err := ff.Start(hosted, 0, tracer, tap, extra...)
	if err != nil {
		return err
	}
	// Close is idempotent: after a clean drain it is a no-op, on every error
	// path below it is the teardown.
	defer f.Close()

	var store *registry.Store
	if mf.Registry != "" {
		if store, err = registry.Open(mf.Registry); err != nil {
			return err
		}
	}
	srv, err := httpd.New(httpd.Config{
		Fleet:         f,
		Registry:      store,
		APIKeys:       keys,
		RateLimit:     httpd.RateLimit{RPS: *rate, Burst: *burst},
		IdleTTL:       *idleTTL,
		RetryAfter:    *retryAfter,
		Logger:        log,
		Tracer:        tracer,
		SlowThreshold: *slowLog,
		EnablePprof:   *pprofOn,
		Tap:           tap,
	})
	if err != nil {
		return err
	}

	// The signal handler is live before the address is published, so a
	// harness that reads -addr-file and immediately signals cannot race the
	// registration.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := l.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			l.Close()
			return err
		}
	}
	log.Info("tbnetd listening", "addr", bound, "models", strings.Join(f.Models(), ","),
		"policy", ff.Policy, "devices", ff.Devices)
	// Status check for the batching layer: grep the log for "batching:" to
	// see whether a lone request can be held back for companions.
	maxBatch, linger := f.Batching()
	mode := "work-conserving"
	if linger > 0 {
		mode = "lingering"
	}
	log.Info(fmt.Sprintf("batching: max_batch=%d linger=%v (%s)", maxBatch, linger, mode))
	// Status check for the kernel layer: which micro-kernels passed their
	// CPUID gates, how big a product must be to leave its goroutine, and
	// which kernel parses the numbers of an inference body.
	log.Info("kernels: " + tensor.KernelStatus() + " json=" + httpd.NumberKernel())

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop()
	log.Info("signal received, draining", "budget", drainTimeout.String())
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		return err
	}
	log.Info("drained cleanly, bye")
	return nil
}
