// Command tbnet drives the TBNet reproduction: it trains victims, generates
// the two-branch substitution model, persists and restores finalized
// deployments, serves them concurrently on the simulated TrustZone
// substrate — single device, mixed fleet, or under a trace-driven workload
// scenario — and regenerates every table and figure of the paper's
// evaluation.
//
// Command bodies return an error; run maps it onto the exit code through
// cliconf.ExitCode (2 for a usage error, reported before anything expensive
// starts, 1 for a failure of the work). Models come from one place
// (source.go) and fleets from cliconf's FleetFlags.Start, as in tbnetd.
//
// Usage:
//
//	tbnet experiment <all|NAME> [flags]   # NAME: an entry of experiments.Catalog
//	tbnet pipeline [flags]    # one train→transfer→prune→finalize flow
//	tbnet save [flags]        # run the pipeline and persist the deployment artifact
//	tbnet load [flags]        # restore a saved deployment (or list a registry)
//	tbnet serve [flags]       # deploy and serve a synthetic request load
//	tbnet fleet [flags]       # serve across a mixed device fleet with routed traffic
//	tbnet scenario [flags]    # drive a fleet through a phased / trace-replayed workload
//	tbnet info                # print the registered hardware backends
//	tbnet version             # print the release and Go toolchain versions
//
// Every command's flags, defaults included, are printed by `tbnet <command>
// -h`; `tbnet` alone prints the full synopsis (usageText).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"tbnet"
	"tbnet/internal/buildinfo"
	"tbnet/internal/cliconf"
	"tbnet/internal/experiments"
	"tbnet/internal/report"
	"tbnet/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one CLI invocation and maps its outcome onto the exit code
// (cliconf.ExitCode: usage errors 2, failures 1); it is the testable entry
// point.
func run(args []string, stdout, stderr io.Writer) int {
	return cliconf.ExitCode(dispatch(args, stdout, stderr), stderr)
}

// dispatch routes the invocation to its command.
func dispatch(args []string, stdout, stderr io.Writer) error {
	if len(args) < 1 {
		return cliconf.Usagef("%s", usageText)
	}
	switch cmd := args[0]; cmd {
	case "experiment":
		return runExperimentCmd(args[1:], stdout, stderr)
	case "pipeline":
		return runPipelineCmd(args[1:], stdout, stderr)
	case "serve":
		return runServeCmd(args[1:], stdout, stderr)
	case "fleet":
		return runFleetCmd(args[1:], stdout, stderr)
	case "save":
		return runSaveCmd(args[1:], stdout, stderr)
	case "load":
		return runLoadCmd(args[1:], stdout, stderr)
	case "scenario":
		return runScenarioCmd(args[1:], stdout, stderr)
	case "info":
		runInfoCmd(stdout)
		return nil
	case "version", "-version", "--version":
		fmt.Fprintf(stdout, "tbnet %s (%s)\n", tbnet.Version, buildinfo.GoVersion())
		return nil
	default:
		return cliconf.Usagef("unknown command %q\n%s", cmd, usageText)
	}
}

// commonFlags carries the flags shared by the workload commands.
type commonFlags struct {
	scale   string
	seed    uint64
	arch    string
	dataset string
	device  string
	jsonOut bool
	verbose bool
}

// newFlagSet starts a command's flag set with the common flags registered.
func newFlagSet(name string, stderr io.Writer) (*flag.FlagSet, *commonFlags) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := &commonFlags{}
	fs.StringVar(&c.scale, "scale", "ci", "workload scale: micro, ci, or full")
	fs.Uint64Var(&c.seed, "seed", 1, "master seed")
	fs.StringVar(&c.arch, "arch", "vgg", "architecture: vgg, resnet, mobilenet, tiny-vgg, tiny-resnet")
	fs.StringVar(&c.dataset, "dataset", "c10", "dataset: c10 or c100")
	fs.StringVar(&c.device, "device", "rpi3", "hardware backend (see `tbnet info` for the registry)")
	fs.BoolVar(&c.jsonOut, "json", false, "machine-readable JSON output")
	fs.BoolVar(&c.verbose, "v", false, "verbose progress logging")
	return fs, c
}

// resolveDevice looks the -device flag up in the registry.
func (c *commonFlags) resolveDevice() (tbnet.Device, error) {
	return tbnet.DeviceByName(c.device)
}

func runPipelineCmd(args []string, stdout, stderr io.Writer) error {
	fs, c := newFlagSet("pipeline", stderr)
	if err := cliconf.ParseFlags(fs, args); err != nil {
		return err
	}
	src, err := c.source(fs, nil, tbnet.PrecisionF32, stderr)
	if err != nil {
		return err
	}
	// The finalized model is deployed on the selected backend; meter one
	// single-image inference, so the pipeline summary carries the modeled
	// hardware story alongside the accuracy one.
	res, dep := src.res, src.hosted[0].Dep
	if _, err := dep.Infer(src.sample(0)); err != nil {
		return err
	}
	if c.jsonOut {
		return json.NewEncoder(stdout).Encode(struct {
			Arch        string  `json:"arch"`
			Dataset     string  `json:"dataset"`
			Device      string  `json:"device"`
			VictimAcc   float64 `json:"victim_acc"`
			TBAcc       float64 `json:"tbnet_acc"`
			PruneIters  int     `json:"prune_iterations"`
			SecureBytes int64   `json:"peak_secure_bytes"`
			LatencySec  float64 `json:"latency_sec"`
		}{c.arch, c.dataset, dep.Device.Name(), res.VictimAcc, res.TBAcc,
			res.PruneRes.Iterations, dep.SecureBytes, dep.Latency()})
	}
	fmt.Fprintf(stdout, "victim accuracy: %s\n", report.Pct(res.VictimAcc))
	fmt.Fprintf(stdout, "TBNet accuracy:  %s\n", report.Pct(res.TBAcc))
	fmt.Fprintf(stdout, "pruning iterations applied: %d\n", res.PruneRes.Iterations)
	fmt.Fprintf(stdout, "deployed on %s: %s secure memory, %.6fs modeled single-image latency\n",
		dep.Device.Name(), report.Bytes(dep.SecureBytes), dep.Latency())
	for _, h := range res.PruneRes.History {
		status := "kept"
		if h.Reverted {
			status = "reverted"
		}
		fmt.Fprintf(stdout, "  iter %d: %d prunable channels, acc %s (%s)\n",
			h.Iter, h.TotalChannels, report.Pct(h.Acc), status)
	}
	return nil
}

func runServeCmd(args []string, stdout, stderr io.Writer) error {
	fs, c := newFlagSet("serve", stderr)
	workers := fs.Int("workers", 4, "replicated enclave sessions per model")
	batch := fs.Int("batch", 8, "micro-batch flush size")
	delay := fs.Duration("delay", 0, "hold an incomplete micro-batch back this long for companions (0: an idle worker takes it at once)")
	requests := fs.Int("requests", 64, "synthetic requests to serve")
	mf := cliconf.AddModelFlags(fs, "model registry directory for bare -models names")
	precision := cliconf.AddPrecisionFlag(fs, "serving precision in pipeline mode: f32 or int8")
	if err := cliconf.ParseFlags(fs, args); err != nil {
		return err
	}
	if *workers < 1 || *batch < 1 || *delay < 0 || *requests < 1 {
		return cliconf.Usagef("invalid serve flags: workers %d, batch %d, delay %v, requests %d",
			*workers, *batch, *delay, *requests)
	}
	prec, err := precision.Parse()
	if err != nil {
		return err
	}
	// Artifact mode spreads noise traffic across the hosted models; pipeline
	// mode keeps the accuracy-checked closed loop.
	src, err := c.source(fs, mf, prec, stderr)
	if err != nil {
		return err
	}
	// One device is a one-node fleet: the node's own serving stats are the
	// report.
	dep := src.hosted[0].Dep
	opts := []tbnet.FleetOption{
		tbnet.WithDevice(dep.Device, *workers),
		tbnet.WithMaxBatch(*batch),
		tbnet.WithMaxDelay(*delay),
	}
	for _, m := range src.hosted[1:] {
		opts = append(opts, tbnet.WithModel(m.Name, m.Dep))
	}
	srv, err := tbnet.NewFleet(dep, opts...)
	if err != nil {
		return err
	}
	defer srv.Close()
	hosted := srv.Models()

	// Closed-loop synthetic clients; with several hosted models the traffic
	// round-robins across them.
	fmt.Fprintf(stderr, "serving %d requests over %d workers × %d model(s) (batch ≤%d, delay %v)...\n",
		*requests, *workers, len(hosted), *batch, *delay)
	var wg sync.WaitGroup
	var mu sync.Mutex
	correct, failed := 0, 0
	clients := 4 * (*workers)
	work := make(chan int)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				label, err := srv.InferModel(context.Background(), hosted[i%len(hosted)], src.sample(i))
				mu.Lock()
				if err != nil {
					failed++
				} else if label == src.label(i) {
					correct++
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < *requests; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	st := srv.Stats().PerDevice[0].Serve

	if c.jsonOut {
		// The stats struct's own JSON tags are the stable artifact names;
		// the CLI only adds its client-side accuracy count.
		return json.NewEncoder(stdout).Encode(struct {
			serve.Stats
			Correct int `json:"correct"`
		}{st, correct})
	}
	fmt.Fprintf(stdout, "served %d requests (%d failed), accuracy %s\n",
		st.Requests, failed, report.Pct(float64(correct)/float64(*requests)))
	fmt.Fprintf(stdout, "  device:             %s (peak secure memory %s)\n",
		st.Device, report.Bytes(st.PeakSecureBytes))
	fmt.Fprintf(stdout, "  workers:            %d\n", st.Workers)
	fmt.Fprintf(stdout, "  batches:            %d (mean %.2f, largest %d)\n",
		st.Batches, st.MeanBatch, st.LargestBatch)
	fmt.Fprintf(stdout, "  modeled latency:    p50 %.4fs  p99 %.4fs\n", st.P50Latency, st.P99Latency)
	fmt.Fprintf(stdout, "  modeled throughput: %.1f req/s on the simulated device\n",
		st.ModeledThroughput)
	fmt.Fprintf(stdout, "  wall time:          %.2fs\n", st.WallSeconds)
	return nil
}

// addFleetFlags registers the shared fleet flags with the defaults `tbnet
// fleet` and `tbnet scenario` share, plus -pace.
func addFleetFlags(fs *flag.FlagSet) *cliconf.FleetFlags {
	ff := cliconf.AddFleetFlags(fs, cliconf.FleetDefaults{
		Devices:           "rpi3:2,sgx-desktop:2,jetson-tz:2",
		AutoscaleInterval: 50 * time.Millisecond,
	})
	ff.AddPaceFlag(fs)
	return ff
}

// renderAutoscale prints the controller's tables after a fleet's own, when
// the fleet ran elastically.
func renderAutoscale(w io.Writer, f *tbnet.Fleet) {
	ctl := tbnet.FleetAutoscaler(f)
	if ctl == nil {
		return
	}
	report.AutoscaleTable(ctl.Stats(), f.WorkerSeconds()).Render(w)
	if evs := ctl.Events(); len(evs) > 0 {
		report.AutoscaleEventTable(evs).Render(w)
	}
}

func runFleetCmd(args []string, stdout, stderr io.Writer) error {
	fs, c := newFlagSet("fleet", stderr)
	ff := addFleetFlags(fs)
	requests := fs.Int("requests", 64, "synthetic requests to offer")
	rate := fs.Float64("rate", 200, "open-loop arrival rate (req/s)")
	poisson := fs.Bool("poisson", false, "exponential (Poisson-process) interarrival times")
	if err := cliconf.ParseFlags(fs, args); err != nil {
		return err
	}
	if *requests < 1 || *rate <= 0 {
		return cliconf.Usagef("invalid fleet flags: requests %d, rate %g", *requests, *rate)
	}
	if err := ff.Validate(); err != nil {
		return err
	}
	src, err := c.source(fs, nil, ff.Precision, stderr)
	if err != nil {
		return err
	}
	f, err := ff.Start(src.hosted, 0, nil, nil)
	if err != nil {
		return err
	}
	defer f.Close()

	// Open-loop synthetic load: requests arrive on their own clock — fixed
	// intervals of 1/rate, or exponential interarrivals for a Poisson process
	// — whether or not earlier ones have finished, so overload is reachable
	// and shedding observable (unlike a closed loop, which self-throttles).
	rng := rand.New(rand.NewSource(int64(c.seed)))
	mean := 1 / *rate
	fmt.Fprintf(stderr, "offering %d requests at %.0f req/s (%s arrivals) under %q routing...\n",
		*requests, *rate, map[bool]string{true: "poisson", false: "uniform"}[*poisson], ff.Policy)
	var wg sync.WaitGroup
	var mu sync.Mutex
	correct, shed, failed := 0, 0, 0
	next := time.Now()
	for i := 0; i < *requests; i++ {
		step := mean
		if *poisson {
			step = mean * rng.ExpFloat64()
		}
		next = next.Add(time.Duration(step * float64(time.Second)))
		time.Sleep(time.Until(next))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			label, err := f.Infer(context.Background(), src.sample(i))
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				if label == src.label(i) {
					correct++
				}
			case errors.Is(err, tbnet.ErrOverloaded):
				shed++
			default:
				failed++
			}
		}(i)
	}
	wg.Wait()
	st := f.Stats()

	if c.jsonOut {
		if ctl := tbnet.FleetAutoscaler(f); ctl != nil {
			// The flat fleet snapshot plus one nested autoscale object — the
			// static shape stays byte-compatible with autoscaling off.
			return json.NewEncoder(stdout).Encode(struct {
				tbnet.FleetStats
				Autoscale tbnet.AutoscaleStats `json:"autoscale"`
			}{st, ctl.Stats()})
		}
		return report.RenderFleetStatsJSON(stdout, st)
	}
	report.FleetTable(st).Render(stdout)
	renderAutoscale(stdout, f)
	fmt.Fprintf(stdout, "offered %d requests: %d served (%d correct), %d shed, %d failed\n",
		*requests, st.Requests, correct, shed, failed)
	fmt.Fprintf(stdout, "fleet secure footprint: %s across %d devices\n",
		report.Bytes(st.PeakSecureBytes), st.Devices)
	return nil
}

func runExperimentCmd(args []string, stdout, stderr io.Writer) error {
	fs, c := newFlagSet("experiment", stderr)
	if len(args) < 1 || args[0] == "-h" || args[0] == "-help" {
		return cliconf.Usagef("%s", usageText)
	}
	which := args[0]
	if err := cliconf.ParseFlags(fs, args[1:]); err != nil {
		return err
	}
	e, ok := experiments.Lookup(which)
	if which == "all" {
		if c.jsonOut {
			return cliconf.Usagef("-json is per-artifact; run each experiment separately")
		}
		e, ok = experiments.Experiment{Name: "all", Render: func(l *experiments.Lab, w io.Writer, _ bool) error {
			l.RunAll(w)
			return nil
		}}, true
	}
	if !ok {
		return cliconf.Usagef("unknown experiment %q (want all, %s)", which, strings.Join(experimentNames(), ", "))
	}
	lab, _, err := c.lab(stderr)
	if err != nil {
		return err
	}
	return e.Render(lab, stdout, c.jsonOut)
}

// experimentNames lists the catalog's names in order.
func experimentNames() []string {
	var names []string
	for _, e := range experiments.Catalog() {
		names = append(names, e.Name)
	}
	return names
}

func runInfoCmd(w io.Writer) {
	for _, d := range tbnet.Devices() {
		fmt.Fprintf(w, "device: %s\n", d.Name())
		if cm, ok := d.(interface{ Describe() string }); ok {
			fmt.Fprintf(w, "  hardware:         %s\n", cm.Describe())
		}
		fmt.Fprintf(w, "  REE throughput:   %.2g FLOP/s\n", d.REEFlopsPerSec())
		fmt.Fprintf(w, "  TEE throughput:   %.2g FLOP/s\n", d.TEEFlopsPerSec())
		fmt.Fprintf(w, "  switch cost:      %.0fµs\n", d.SwitchSeconds()*1e6)
		fmt.Fprintf(w, "  transfer BW:      %.2g B/s\n", d.TransferBytesPerSec())
		fmt.Fprintf(w, "  secure memory:    %s\n", report.Bytes(d.SecureMemBytes()))
	}
}

// experimentSynopsis is the usage line of `tbnet experiment`, listing the
// catalog in order and wrapped at 96 columns.
func experimentSynopsis() string {
	var b strings.Builder
	line := "  tbnet experiment <all"
	for _, name := range experimentNames() {
		if len(line)+len(name)+2 > 96 {
			b.WriteString(line + "|\n")
			line = strings.Repeat(" ", 20) + name
			continue
		}
		line += "|" + name
	}
	return b.String() + line + ">"
}

// usageText is the synopsis printed for a missing or unknown command.
var usageText = "usage:\n" + experimentSynopsis() + `
                   [-scale micro|ci|full] [-seed N] [-device NAME] [-json] [-v]
  tbnet pipeline [-arch vgg|resnet|mobilenet|tiny-vgg|tiny-resnet]
                 [-dataset c10|c100] [-scale micro|ci|full] [-seed N]
                 [-device NAME] [-json] [-v]
  tbnet save     (-out FILE | -registry DIR [-name NAME]) [-int8]
                 [-arch ...] [-dataset ...] [-scale ...] [-seed N]
                 [-device NAME] [-json] [-v]
  tbnet load     (-in FILE | -registry DIR [-name NAME])
                 [-device NAME] [-json]    # no -name: list the registry
  tbnet serve    [-workers N] [-batch N] [-delay D] [-requests N] [-precision f32|int8]
                 [-models NAME=FILE,... | -models NAME,... -registry DIR]
                 [-arch ...] [-dataset ...] [-scale ...] [-seed N]
                 [-device NAME] [-json] [-v]
  tbnet fleet    [-devices NAME:W,NAME:W,...] [-policy round-robin|least-loaded|cost-aware|ewma]
                 [-requests N] [-rate R] [-poisson] [-deadline D] [-max-inflight N]
                 [-autoscale [-autoscale-min N] [-autoscale-max N] [-autoscale-interval D]]
                 [-pace S] [-precision f32|int8]
                 [-arch ...] [-dataset ...] [-scale ...] [-seed N] [-json] [-v]
  tbnet scenario [-devices NAME:W,...] [-policy ...] [-deadline D] [-max-inflight N]
                 [-spec name:pattern:rate:dur[:peak[:period]],...] [-trace FILE]
                 [-models NAME=FILE,... | -models NAME,... -registry DIR]
                 [-autoscale [-autoscale-min N] [-autoscale-max N] [-autoscale-interval D]]
                 [-pace S] [-precision f32|int8]
                 [-attack] [-obfuscate SPEC]    # replay the arch-inference attack on live traces
                 [-sweep W,W,...]               # static-vs-autoscale comparison
                 [-target URL [-api-key KEY]]   # client mode: load-test a running tbnetd over HTTP
                 [-trace-out FILE]              # dump per-request span timelines after the run
                 [-arch ...] [-dataset ...] [-scale ...] [-seed N] [-json] [-v]
  tbnet info     # list the registered hardware backends
  tbnet version  # print the release and Go toolchain versions`
