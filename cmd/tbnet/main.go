// Command tbnet drives the TBNet reproduction: it trains victims, generates
// the two-branch substitution model, persists and restores finalized
// deployments, serves them concurrently on the simulated TrustZone
// substrate — single device, mixed fleet, or under a trace-driven workload
// scenario — and regenerates every table and figure of the paper's
// evaluation.
//
// Usage:
//
//	tbnet experiment <all|table1|table2|table3|fig2|fig3|fig4|hw|quant|fleet|ablation|...> [flags]
//	tbnet pipeline [flags]    # one train→transfer→prune→finalize flow
//	tbnet save [flags]        # run the pipeline and persist the deployment artifact
//	tbnet load [flags]        # restore a saved deployment (or list a registry)
//	tbnet serve [flags]       # deploy and serve a synthetic request load
//	tbnet fleet [flags]       # serve across a mixed device fleet with routed traffic
//	tbnet scenario [flags]    # drive a fleet through a phased / trace-replayed workload
//	tbnet info                # print the registered hardware backends
//	tbnet version             # print the release and Go toolchain versions
//
// Common flags:
//
//	-scale micro|ci|full  workload scale (default ci)
//	-seed N               master seed (default 1)
//	-arch vgg|resnet|mobilenet|tiny-vgg|tiny-resnet
//	-dataset c10|c100
//	-device NAME          hardware backend (default rpi3; see `tbnet info`)
//	-json                 machine-readable output (all workload commands)
//	-v                    verbose progress logging
//
// Save/load flags:
//
//	-out FILE         artifact file to write (save)
//	-in FILE          artifact file to read (load)
//	-registry DIR     named model store directory (save into / load from / list)
//	-name NAME        registry entry name (save default: the arch name)
//
// Serve flags:
//
//	-workers N    replicated enclave sessions per model (default 4)
//	-batch N      micro-batch flush size (default 8)
//	-delay D      hold an incomplete micro-batch back this long for
//	              companions (default 0: an idle worker takes it at once)
//	-requests N   synthetic requests to serve (default 64)
//	-models LIST  serve saved models (name=artifact.tbd, or registry names
//	              with -registry) instead of training a pipeline; several
//	              models are hosted concurrently on one server
//
// Fleet flags:
//
//	-devices LIST     attached devices as name:workers pairs
//	                  (default rpi3:2,sgx-desktop:2,jetson-tz:2)
//	-policy NAME      round-robin | least-loaded | cost-aware | ewma
//	                  (default cost-aware; ewma routes on learned latencies)
//	-requests N       synthetic requests to offer (default 64)
//	-rate R           open-loop arrival rate in req/s (default 200)
//	-poisson          exponential (Poisson-process) interarrival times
//	-deadline D       per-request deadline; overdue requests are shed (default none)
//	-max-inflight N   fleet-wide in-flight cap (default capacity-weighted)
//
// Autoscale flags (fleet and scenario):
//
//	-autoscale             run the elastic autoscaler over the fleet
//	-autoscale-min N       per-node worker floor (default 1)
//	-autoscale-max N       per-node worker ceiling (default 8)
//	-autoscale-interval D  control-loop period (default 50ms)
//	-pace S                pace workers at modeled-latency × S of wall time,
//	                       so capacity genuinely scales with worker count
//
// Scenario flags (plus -devices/-policy/-deadline/-max-inflight as fleet):
//
//	-spec LIST    phases as name:pattern:rate:duration[:peak[:period]] with
//	              pattern uniform|poisson|burst|ramp|diurnal
//	-trace FILE   replay an arrival trace ("<offset-seconds> [model]" lines)
//	-models LIST  serve saved models (mixed-model traffic when several)
//	-sweep LIST   also run the same workload at these static widths and
//	              render the static-vs-autoscale comparison (implies -autoscale)
//	-trace-out F  record per-request span timelines during the run and write
//	              them to F after it (a table, or the /debug/trace JSON shape
//	              with -json); local fleet runs only
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
	"sync"
	"time"

	"tbnet"
	"tbnet/internal/buildinfo"
	"tbnet/internal/cliconf"
	"tbnet/internal/experiments"
	"tbnet/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches one CLI invocation; it is the testable entry point.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
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
		return runInfoCmd(stdout)
	case "version", "-version", "--version":
		fmt.Fprintf(stdout, "tbnet %s (%s)\n", tbnet.Version, buildinfo.GoVersion())
		return 0
	default:
		fmt.Fprintf(stderr, "unknown command %q\n", cmd)
		usage(stderr)
		return 2
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

func addCommonFlags(fs *flag.FlagSet) *commonFlags {
	c := &commonFlags{}
	fs.StringVar(&c.scale, "scale", "ci", "workload scale: micro, ci, or full")
	fs.Uint64Var(&c.seed, "seed", 1, "master seed")
	fs.StringVar(&c.arch, "arch", "vgg", "architecture: vgg, resnet, mobilenet, tiny-vgg, tiny-resnet")
	fs.StringVar(&c.dataset, "dataset", "c10", "dataset: c10 or c100")
	fs.StringVar(&c.device, "device", "rpi3", "hardware backend (see `tbnet info` for the registry)")
	fs.BoolVar(&c.jsonOut, "json", false, "machine-readable JSON output")
	fs.BoolVar(&c.verbose, "v", false, "verbose progress logging")
	return c
}

// resolveDevice looks the -device flag up in the registry.
func (c *commonFlags) resolveDevice() (tbnet.Device, error) {
	return tbnet.DeviceByName(c.device)
}

// deployAt places a finalized model at the selected serving precision. The
// -precision flag is parsed (and rejected with a usage error) before any
// pipeline builds, so callers hand in the parsed form.
func deployAt(tb *tbnet.TwoBranch, device tbnet.Device, shape []int, p tbnet.Precision) (*tbnet.Deployment, error) {
	if p == tbnet.PrecisionInt8 {
		return tbnet.DeployInt8(tb, device, shape)
	}
	return tbnet.Deploy(tb, device, shape)
}

// pipelineOptions maps the CLI flags onto the functional-options surface.
func (c *commonFlags) pipelineOptions(stderr io.Writer) ([]tbnet.PipelineOption, error) {
	opts := []tbnet.PipelineOption{
		tbnet.WithArch(c.arch),
		tbnet.WithDataset(c.dataset),
		tbnet.WithSeed(c.seed),
	}
	switch c.scale {
	case "micro":
		opts = append(opts,
			tbnet.WithDatasetSize(60, 30),
			tbnet.WithEpochs(2, 2, 1),
			tbnet.WithPruning(1.0, 1),
			tbnet.WithHyperparams(0.05, 5e-4),
		)
	case "ci":
		// pipeline defaults are the CI scale
	case "full":
		opts = append(opts,
			tbnet.WithDatasetSize(240, 160),
			tbnet.WithEpochs(14, 14, 2),
			tbnet.WithPruning(0.12, 5),
		)
	default:
		return nil, fmt.Errorf("unknown scale %q (want micro, ci, or full)", c.scale)
	}
	if c.verbose {
		opts = append(opts, tbnet.WithLogger(stderr))
	}
	return opts, nil
}

func runPipelineCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pipeline", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := addCommonFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opts, err := c.pipelineOptions(stderr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	device, err := c.resolveDevice()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	p, err := tbnet.NewPipeline(opts...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	res, err := p.Run(context.Background())
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	// Deploy the finalized model on the selected backend and meter one
	// single-image inference, so the pipeline summary carries the modeled
	// hardware story alongside the accuracy one.
	dep, err := tbnet.Deploy(res.TB, device, []int{1, 3, 16, 16})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	sample := res.Test.Batches(1, []int{0})[0].X
	if _, err := dep.Infer(sample); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if c.jsonOut {
		enc := json.NewEncoder(stdout)
		if err := enc.Encode(struct {
			Arch        string  `json:"arch"`
			Dataset     string  `json:"dataset"`
			Device      string  `json:"device"`
			VictimAcc   float64 `json:"victim_acc"`
			TBAcc       float64 `json:"tbnet_acc"`
			PruneIters  int     `json:"prune_iterations"`
			SecureBytes int64   `json:"peak_secure_bytes"`
			LatencySec  float64 `json:"latency_sec"`
		}{c.arch, c.dataset, device.Name(), res.VictimAcc, res.TBAcc,
			res.PruneRes.Iterations, dep.SecureBytes, dep.Latency()}); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	fmt.Fprintf(stdout, "victim accuracy: %s\n", report.Pct(res.VictimAcc))
	fmt.Fprintf(stdout, "TBNet accuracy:  %s\n", report.Pct(res.TBAcc))
	fmt.Fprintf(stdout, "pruning iterations applied: %d\n", res.PruneRes.Iterations)
	fmt.Fprintf(stdout, "deployed on %s: %s secure memory, %.6fs modeled single-image latency\n",
		device.Name(), report.Bytes(dep.SecureBytes), dep.Latency())
	for _, h := range res.PruneRes.History {
		status := "kept"
		if h.Reverted {
			status = "reverted"
		}
		fmt.Fprintf(stdout, "  iter %d: %d prunable channels, acc %s (%s)\n",
			h.Iter, h.TotalChannels, report.Pct(h.Acc), status)
	}
	return 0
}

func runServeCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := addCommonFlags(fs)
	workers := fs.Int("workers", 4, "replicated enclave sessions per model")
	batch := fs.Int("batch", 8, "micro-batch flush size")
	delay := fs.Duration("delay", 0, "hold an incomplete micro-batch back this long for companions (0: an idle worker takes it at once)")
	requests := fs.Int("requests", 64, "synthetic requests to serve")
	models := fs.String("models", "", "serve saved models: name=artifact.tbd or registry names (comma-separated)")
	regDir := fs.String("registry", "", "model registry directory for bare -models names")
	precision := fs.String("precision", "f32", "serving precision in pipeline mode: f32 or int8")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *workers < 1 || *batch < 1 || *delay < 0 || *requests < 1 {
		fmt.Fprintf(stderr,
			"invalid serve flags: workers %d, batch %d, delay %v, requests %d\n",
			*workers, *batch, *delay, *requests)
		return 2
	}
	prec, err := tbnet.ParsePrecision(*precision)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	// The served models: saved artifacts (-models/-registry) or one freshly
	// trained pipeline. Artifact mode serves random noise inputs (no dataset
	// ships with an artifact) and spreads traffic across the hosted models;
	// pipeline mode keeps the accuracy-checked closed loop.
	var dep *tbnet.Deployment
	var extra []cliconf.Model
	var sample func(i int) *tbnet.Tensor
	var checkLabel func(i, label int) bool
	if *models != "" {
		device, err := explicitDevice(fs, c)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		deps, err := cliconf.LoadModels(*models, *regDir, device)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		dep, extra = deps[0].Dep, deps[1:]
		shape := dep.SampleShape()
		shape[0] = 1
		rng := tbnet.NewRNG(c.seed)
		pool := make([]*tbnet.Tensor, 256)
		for i := range pool {
			x := tbnet.NewTensor(shape...)
			rng.FillNormal(x, 0, 1)
			pool[i] = x
		}
		sample = func(i int) *tbnet.Tensor { return pool[i%len(pool)] }
		checkLabel = func(int, int) bool { return false }
	} else {
		opts, err := c.pipelineOptions(stderr)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		device, err := c.resolveDevice()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		p, err := tbnet.NewPipeline(opts...)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		fmt.Fprintf(stderr, "building %s/%s pipeline at %s scale...\n", c.arch, c.dataset, c.scale)
		res, err := p.Run(context.Background())
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		dep, err = deployAt(res.TB, device, []int{1, 3, 16, 16}, prec)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		test := res.Test
		singles := test.Batches(1, nil)
		sample = func(i int) *tbnet.Tensor { return singles[i%len(singles)].X }
		checkLabel = func(i, label int) bool { return label == test.Y[i%test.Len()] }
	}
	srv, err := tbnet.Serve(dep,
		tbnet.WithWorkers(*workers),
		tbnet.WithMaxBatch(*batch),
		tbnet.WithMaxDelay(*delay),
	)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer srv.Close()
	for _, m := range extra {
		if err := srv.AddModel(m.Name, m.Dep); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
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
				label, err := srv.InferModel(context.Background(), hosted[i%len(hosted)], sample(i))
				mu.Lock()
				if err != nil {
					failed++
				} else if checkLabel(i, label) {
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
	st := srv.Stats()

	if c.jsonOut {
		// The stats struct's own JSON tags are the stable artifact names;
		// the CLI only adds its client-side accuracy count.
		if err := json.NewEncoder(stdout).Encode(struct {
			tbnet.ServerStats
			Correct int `json:"correct"`
		}{st, correct}); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
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
	return 0
}

// fleetDefaults are the shared fleet flags' defaults in `tbnet fleet` and
// `tbnet scenario`.
var fleetDefaults = cliconf.FleetDefaults{
	Devices:           "rpi3:2,sgx-desktop:2,jetson-tz:2",
	AutoscaleInterval: 50 * time.Millisecond,
}

func runFleetCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := addCommonFlags(fs)
	ff := cliconf.AddFleetFlags(fs, fleetDefaults)
	requests := fs.Int("requests", 64, "synthetic requests to offer")
	rate := fs.Float64("rate", 200, "open-loop arrival rate (req/s)")
	poisson := fs.Bool("poisson", false, "exponential (Poisson-process) interarrival times")
	pace := fs.Float64("pace", 0, "pace workers at modeled-latency × this factor (0 = off)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *requests < 1 || *rate <= 0 || *pace < 0 {
		fmt.Fprintf(stderr, "invalid fleet flags: requests %d, rate %g, pace %g\n", *requests, *rate, *pace)
		return 2
	}
	fleetOpts, err := ff.Options(0)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *pace > 0 {
		fleetOpts = append(fleetOpts, tbnet.WithPace(*pace))
	}
	opts, err := c.pipelineOptions(stderr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	device, err := c.resolveDevice()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	p, err := tbnet.NewPipeline(opts...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprintf(stderr, "building %s/%s pipeline at %s scale...\n", c.arch, c.dataset, c.scale)
	res, err := p.Run(context.Background())
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	dep, err := deployAt(res.TB, device, []int{1, 3, 16, 16}, ff.Precision)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	f, err := tbnet.NewFleet(dep, fleetOpts...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer f.Close()

	// Open-loop synthetic load: requests arrive on their own clock — fixed
	// intervals of 1/rate, or exponential interarrivals for a Poisson process
	// — whether or not earlier ones have finished, so overload is reachable
	// and shedding observable (unlike a closed loop, which self-throttles).
	test := res.Test
	singles := test.Batches(1, nil)
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
			label, err := f.Infer(context.Background(), singles[i%len(singles)].X)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				if label == test.Y[i%test.Len()] {
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
	ctl := tbnet.FleetAutoscaler(f)

	if c.jsonOut {
		if ctl != nil {
			// The flat fleet snapshot plus one nested autoscale object — the
			// static shape stays byte-compatible with autoscaling off.
			if err := json.NewEncoder(stdout).Encode(struct {
				tbnet.FleetStats
				Autoscale tbnet.AutoscaleStats `json:"autoscale"`
			}{st, ctl.Stats()}); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			return 0
		}
		if err := report.RenderFleetStatsJSON(stdout, st); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	report.FleetTable(st).Render(stdout)
	if ctl != nil {
		report.AutoscaleTable(ctl.Stats(), f.WorkerSeconds()).Render(stdout)
		if evs := ctl.Events(); len(evs) > 0 {
			report.AutoscaleEventTable(evs).Render(stdout)
		}
	}
	fmt.Fprintf(stdout, "offered %d requests: %d served (%d correct), %d shed, %d failed\n",
		*requests, st.Requests, correct, shed, failed)
	fmt.Fprintf(stdout, "fleet secure footprint: %s across %d devices\n",
		report.Bytes(st.PeakSecureBytes), st.Devices)
	return 0
}

func runExperimentCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiment", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := addCommonFlags(fs)
	if len(args) < 1 || args[0] == "-h" || args[0] == "-help" {
		usage(stderr)
		return 2
	}
	which := args[0]
	if !knownExperiment(which) {
		fmt.Fprintf(stderr, "unknown experiment %q\n", which)
		return 2
	}
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}
	device, err := c.resolveDevice()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	cfg := experiments.Config{Seed: c.seed, Device: device}
	switch c.scale {
	case "micro":
		cfg.Scale = experiments.MicroScale()
	case "ci":
		cfg.Scale = experiments.CIScale()
	case "full":
		cfg.Scale = experiments.FullScale()
	default:
		fmt.Fprintf(stderr, "unknown scale %q (want micro, ci, or full)\n", c.scale)
		return 2
	}
	if c.verbose {
		cfg.Log = stderr
	}
	return renderExperiment(experiments.NewLab(cfg), which, c.jsonOut, stdout, stderr)
}

func knownExperiment(which string) bool {
	switch which {
	case "all", "table1", "table2", "table3", "fig2", "fig3", "fig4", "hw",
		"quant", "fleet", "secdefense", "ablation", "ablation-ranking",
		"ablation-rollback", "ablation-lambda", "ablation-quant":
		return true
	}
	return false
}

func renderExperiment(lab *experiments.Lab, which string, jsonOut bool, w, stderr io.Writer) int {
	render := func(t *report.Table) int {
		if jsonOut {
			if err := t.RenderJSON(w); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			return 0
		}
		t.Render(w)
		return 0
	}
	switch which {
	case "all":
		if jsonOut {
			fmt.Fprintln(stderr, "-json is per-artifact; run each experiment separately")
			return 2
		}
		lab.RunAll(w)
	case "table1":
		return render(lab.Table1())
	case "table2":
		return render(lab.Table2())
	case "table3":
		return render(lab.Table3())
	case "fig2":
		title := "Fig. 2: attacker fine-tuning M_R of VGG18-S under varying data availability"
		if jsonOut {
			if err := report.RenderSeriesJSON(w, title, lab.Fig2()); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			return 0
		}
		report.RenderSeries(w, title, lab.Fig2())
	case "fig3":
		return render(lab.Fig3())
	case "hw":
		return render(lab.TableHW())
	case "quant":
		return render(lab.TableQuant())
	case "fleet":
		return render(lab.TableFleet())
	case "secdefense":
		return render(lab.TableSecDefense())
	case "fig4":
		mr, mt := lab.Fig4()
		if jsonOut {
			if err := mr.RenderJSON(w, "M_R |gamma|"); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			if err := mt.RenderJSON(w, "M_T |gamma|"); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			return 0
		}
		fmt.Fprintln(w, "Fig. 4: BN weight distributions after knowledge transfer (VGG18-S/SynthC10)")
		mr.Render(w, "M_R |gamma|", 40)
		mt.Render(w, "M_T |gamma|", 40)
		fmt.Fprintf(w, "mean |gamma|: M_R %.4f vs M_T %.4f\n", mr.Mean(), mt.Mean())
	case "ablation":
		return render(lab.Ablation())
	case "ablation-ranking":
		return render(lab.AblationPruneRanking())
	case "ablation-rollback":
		return render(lab.AblationRollback())
	case "ablation-lambda":
		return render(lab.AblationLambda())
	case "ablation-quant":
		return render(lab.AblationQuant())
	}
	return 0
}

func runInfoCmd(w io.Writer) int {
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
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage:
  tbnet experiment <all|table1|table2|table3|fig2|fig3|fig4|hw|quant|fleet|secdefense|
                    ablation|ablation-ranking|ablation-rollback|ablation-lambda|ablation-quant>
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
  tbnet version  # print the release and Go toolchain versions`)
}
