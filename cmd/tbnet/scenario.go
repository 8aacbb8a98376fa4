package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"tbnet"
	"tbnet/internal/cliconf"
	"tbnet/internal/fleet"
	"tbnet/internal/report"
	"tbnet/internal/scenario"
	"tbnet/internal/seceval"
)

// defaultSpec is the scenario the CLI runs when -spec is not given: a
// warm-up, a flash crowd, a linear load ramp, and a compressed diurnal
// cycle — a few seconds of wall time that sweeps the fleet through its
// serving regimes.
const defaultSpec = "warmup:uniform:120:1s," +
	"burst:burst:120:2s:480:1s," +
	"ramp:ramp:120:1500ms:420," +
	"diurnal:diurnal:100:2s:320:1s"

// explicitDevice resolves the -device flag only if the user actually set it
// (artifact mode defaults to each artifact's saved device, so the flag's
// "rpi3" default must not silently re-target loaded models).
func explicitDevice(fs *flag.FlagSet, c *commonFlags) (tbnet.Device, error) {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "device" {
			set = true
		}
	})
	if !set {
		return nil, nil
	}
	return c.resolveDevice()
}

// parseScenarioSpec parses the -spec phase DSL: comma-separated phases, each
//
//	name:pattern:rate:duration[:peak[:period]]
//
// with pattern one of uniform|poisson|burst|ramp|diurnal. Everything is
// validated here, before the (potentially minutes-long) model build.
func parseScenarioSpec(spec string) ([]scenario.Phase, error) {
	var phases []scenario.Phase
	for _, ps := range strings.Split(spec, ",") {
		ps = strings.TrimSpace(ps)
		if ps == "" {
			continue
		}
		parts := strings.Split(ps, ":")
		if len(parts) < 4 || len(parts) > 6 {
			return nil, fmt.Errorf("phase %q: want name:pattern:rate:duration[:peak[:period]]", ps)
		}
		switch scenario.Pattern(parts[1]) {
		case scenario.Uniform, scenario.Poisson, scenario.Burst, scenario.Ramp, scenario.Diurnal:
		default:
			return nil, fmt.Errorf("phase %q: unknown pattern %q (want uniform, poisson, burst, ramp, or diurnal)",
				ps, parts[1])
		}
		rate, err := strconv.ParseFloat(parts[2], 64)
		if err != nil || rate <= 0 {
			return nil, fmt.Errorf("phase %q: bad rate %q", ps, parts[2])
		}
		dur, err := time.ParseDuration(parts[3])
		if err != nil || dur <= 0 {
			return nil, fmt.Errorf("phase %q: bad duration %q", ps, parts[3])
		}
		ph := scenario.Phase{
			Name:     parts[0],
			Pattern:  scenario.Pattern(parts[1]),
			Rate:     rate,
			Duration: dur,
		}
		if len(parts) >= 5 {
			peak, err := strconv.ParseFloat(parts[4], 64)
			if err != nil {
				return nil, fmt.Errorf("phase %q: bad peak rate %q", ps, parts[4])
			}
			ph.PeakRate = peak
		}
		if len(parts) == 6 {
			period, err := time.ParseDuration(parts[5])
			if err != nil {
				return nil, fmt.Errorf("phase %q: bad period %q", ps, parts[5])
			}
			ph.Period = period
		}
		// Full semantic validation (peak below base rate, bad period, ...)
		// happens now, not inside scenario.Run after the model build.
		if err := ph.Validate(); err != nil {
			return nil, fmt.Errorf("phase %q: %w", ps, err)
		}
		phases = append(phases, ph)
	}
	if len(phases) == 0 {
		return nil, fmt.Errorf("empty scenario spec")
	}
	return phases, nil
}

// runScenarioCmd implements `tbnet scenario`: assemble a fleet (from saved
// artifacts or a freshly built pipeline), drive it through a phased workload
// — synthesized patterns or a replayed trace — and report per-phase latency,
// shed, and per-model throughput.
func runScenarioCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scenario", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := addCommonFlags(fs)
	ff := cliconf.AddFleetFlags(fs, fleetDefaults)
	models := fs.String("models", "", "serve saved models: name=artifact.tbd or registry names (comma-separated)")
	regDir := fs.String("registry", "", "model registry directory for bare -models names")
	spec := fs.String("spec", defaultSpec, "phases as name:pattern:rate:duration[:peak[:period]]")
	traceFile := fs.String("trace", "", "replay an arrival trace file instead of -spec")
	target := fs.String("target", "", "drive a running tbnetd daemon at this base URL over HTTP (client mode)")
	apiKey := fs.String("api-key", "", "API key sent to a -target daemon with auth enabled")
	pace := fs.Float64("pace", 0, "pace workers at modeled-latency × this factor (0 = off)")
	sweepList := fs.String("sweep", "", "also run the same workload at these static widths (comma-separated worker counts) and compare; implies -autoscale")
	traceOut := fs.String("trace-out", "", "write per-request span timelines to this file after the run (local fleet only)")
	attackRun := fs.Bool("attack", false, "capture attacker-visible traces during the run and replay the architecture-inference attack per tenant")
	obfuscate := fs.String("obfuscate", "", "trace-obfuscation chain applied at capture, e.g. pad:4096,shuffle:8,dummy:0.25; implies -attack")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *pace < 0 {
		fmt.Fprintf(stderr, "invalid scenario flags: pace %g\n", *pace)
		return 2
	}
	sweep, err := parseSweepWidths(*sweepList)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if len(sweep) > 0 {
		ff.Autoscale = true
	}
	// fleetOpts is the flag-described fleet (devices, policy, admission, and
	// the controller when autoscaling); extraOpts is what this command adds
	// to it — and to every leg of a sweep.
	fleetOpts, err := ff.Options(0)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *target != "" && ff.Autoscale {
		fmt.Fprintln(stderr, "-autoscale/-sweep drive a local fleet; with -target the daemon owns its scaling")
		return 2
	}
	if *traceOut != "" && *target != "" {
		fmt.Fprintln(stderr, "-trace-out records a local fleet's spans; against a -target daemon use GET /debug/trace")
		return 2
	}
	if *traceOut != "" && len(sweep) > 0 {
		fmt.Fprintln(stderr, "-trace-out cannot attribute spans across the fleets of a -sweep comparison")
		return 2
	}
	if *obfuscate != "" {
		*attackRun = true
	}
	if *attackRun && *target != "" {
		fmt.Fprintln(stderr, "-attack taps a local fleet's workers; a -target daemon captures with tbnetd -obfuscate")
		return 2
	}
	if *attackRun && len(sweep) > 0 {
		fmt.Fprintln(stderr, "-attack cannot attribute traces across the fleets of a -sweep comparison")
		return 2
	}
	// The obfuscation chain parses before any model build, like the phase spec.
	chain, err := seceval.ParseChain(*obfuscate)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	// Client mode: the target URL is validated here, before any phase parse
	// or model build — a typo in -target is a usage error surfaced in
	// milliseconds, never a failure minutes into a pipeline run.
	var tgt *scenario.HTTPTarget
	if *target != "" {
		if *models != "" {
			fmt.Fprintln(stderr, "-models is meaningless with -target: the daemon already hosts its models")
			return 2
		}
		var terr error
		if tgt, terr = scenario.NewHTTPTarget(*target, scenario.WithAPIKey(*apiKey)); terr != nil {
			fmt.Fprintln(stderr, terr)
			fs.Usage()
			return 2
		}
	}
	var extraOpts []tbnet.FleetOption
	if *pace > 0 {
		extraOpts = append(extraOpts, tbnet.WithPace(*pace))
	}
	// The span ring outlives the fleet, so the timelines are still readable
	// after the run tears the serving pools down.
	var tracer *tbnet.Tracer
	if *traceOut != "" {
		tracer = tbnet.NewTracer(4096)
		extraOpts = append(extraOpts, tbnet.WithTracing(tracer))
	}
	// The attack tap likewise outlives the fleet: captured views are replayed
	// against each tenant after the run.
	var tap *seceval.Tap
	if *attackRun {
		topts := []seceval.TapOption{seceval.WithSeed(int64(c.seed)), seceval.WithRunLimit(8192)}
		if len(chain.Layers) > 0 {
			topts = append(topts, seceval.WithObfuscation(chain))
		}
		tap = seceval.NewTap(topts...)
		extraOpts = append(extraOpts, tbnet.WithFleetTap(tap))
	}

	// Parse the workload shape first — a typo in the spec or a missing trace
	// file must fail before the (potentially minutes-long) model build.
	var phases []scenario.Phase
	if *traceFile != "" {
		tf, err := os.Open(*traceFile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		arrivals, err := scenario.ParseTrace(tf)
		tf.Close()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		phases = []scenario.Phase{{Name: "replay", Pattern: scenario.Replay, Trace: arrivals}}
	} else {
		phases, err = parseScenarioSpec(*spec)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}

	// Client mode runs here — the workload shape is parsed and the target
	// validated; no local fleet or model build is needed at all.
	if tgt != nil {
		return runScenarioClient(tgt, *target, phases, c, stdout, stderr)
	}

	// The served models: either saved artifacts (-models/-registry) or one
	// freshly trained pipeline. The first model is the fleet's template and
	// serves as the default model; any further ones are hosted by name.
	var deps []cliconf.Model
	sample := func(i int) *tbnet.Tensor { return nil } // replaced below
	if *models != "" {
		device, derr := explicitDevice(fs, c)
		if derr != nil {
			fmt.Fprintln(stderr, derr)
			return 2
		}
		deps, err = cliconf.LoadModels(*models, *regDir, device)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		// Saved artifacts carry no dataset, so the client load is random
		// noise images of the served shape — the serving stack's behaviour
		// under load does not depend on input content.
		shape := deps[0].Dep.SampleShape()
		shape[0] = 1
		rng := tbnet.NewRNG(c.seed)
		pool := make([]*tbnet.Tensor, 256)
		for i := range pool {
			x := tbnet.NewTensor(shape...)
			rng.FillNormal(x, 0, 1)
			pool[i] = x
		}
		sample = func(i int) *tbnet.Tensor { return pool[i%len(pool)] }
	} else {
		opts, err := c.pipelineOptions(stderr)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		p, err := tbnet.NewPipeline(opts...)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		device, err := c.resolveDevice()
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
		deps = []cliconf.Model{{Name: c.arch, Dep: dep}}
		singles := res.Test.Batches(1, nil)
		sample = func(i int) *tbnet.Tensor { return singles[i%len(singles)].X }
	}

	// Mixed-model traffic shares: the default model plus every named extra,
	// applied to every phase now that the hosted set is known.
	if len(deps) > 1 {
		shares := []scenario.ModelShare{{Name: tbnet.DefaultModel, Weight: 1}}
		for _, m := range deps[1:] {
			shares = append(shares, scenario.ModelShare{Name: m.Name, Weight: 1})
		}
		for i := range phases {
			phases[i].Models = shares
		}
	}

	for _, m := range deps[1:] {
		extraOpts = append(extraOpts, tbnet.WithModel(m.Name, m.Dep))
	}
	runSpec := scenario.Spec{Name: deps[0].Name, Seed: c.seed, Phases: phases}

	// Sweep mode: the autoscaled fleet (pin 0) and each static width face the
	// same workload back to back, one fleet at a time so the legs never
	// contend for the host.
	if len(sweep) > 0 {
		var points []report.AutoscalePoint
		for _, pin := range append([]int{0}, sweep...) {
			label := fmt.Sprintf("static-%d", pin)
			if pin == 0 {
				label = fmt.Sprintf("autoscale[%d,%d]", ff.AutoscaleMin, ff.AutoscaleMax)
			}
			opts, err := ff.Options(pin)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			fmt.Fprintf(stderr, "driving %d phase(s) over %q routing, %s...\n", len(phases), ff.Policy, label)
			p, err := runScenarioLeg(label, append(opts, extraOpts...), deps[0].Dep, runSpec, sample)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			points = append(points, p)
		}
		if c.jsonOut {
			if err := report.RenderAutoscaleJSON(stdout, points); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			return 0
		}
		report.AutoscaleSweepTable(points).Render(stdout)
		return 0
	}

	f, err := tbnet.NewFleet(deps[0].Dep, append(fleetOpts, extraOpts...)...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer f.Close()

	fmt.Fprintf(stderr, "driving %d phase(s) over %q routing (default model: %s)...\n",
		len(phases), ff.Policy, deps[0].Name)
	res, err := scenario.Run(context.Background(), f, runSpec, sample)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	st := f.Stats()
	ctl := tbnet.FleetAutoscaler(f)
	if tracer != nil {
		if err := writeTraceOut(*traceOut, tracer, c.jsonOut, stderr); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	var atk *attackReport
	if tap != nil {
		if atk, err = buildAttackReport(tap, deps, int64(c.seed)); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}

	if c.jsonOut {
		// One artifact object: the scenario's per-phase client-side figures
		// plus the fleet's own server-side snapshot — and, when the
		// controller ran, its counters.
		var ast *tbnet.AutoscaleStats
		if ctl != nil {
			s := ctl.Stats()
			ast = &s
		}
		if err := json.NewEncoder(stdout).Encode(struct {
			Scenario  *scenario.Result      `json:"scenario"`
			Fleet     fleet.Stats           `json:"fleet"`
			Autoscale *tbnet.AutoscaleStats `json:"autoscale,omitempty"`
			Attack    *attackReport         `json:"attack,omitempty"`
		}{res, st, ast, atk}); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	report.ScenarioTable(res).Render(stdout)
	if len(res.PerModel) > 1 {
		report.ScenarioModelTable(res).Render(stdout)
	}
	report.FleetTable(st).Render(stdout)
	if ctl != nil {
		report.AutoscaleTable(ctl.Stats(), f.WorkerSeconds()).Render(stdout)
		if evs := ctl.Events(); len(evs) > 0 {
			report.AutoscaleEventTable(evs).Render(stdout)
		}
	}
	if atk != nil {
		report.AttackTable(atk.Tenants).Render(stdout)
		if len(atk.Obfuscation) > 0 {
			obfuscationTable(atk).Render(stdout)
		}
	}
	fmt.Fprintf(stdout, "offered %d requests: %d served, %d shed, %d failed in %.2fs\n",
		res.Offered, res.Served, res.Shed, res.Failed, res.WallSeconds)
	return 0
}

// writeTraceOut dumps every span the run's tracer captured to path — the
// SpanTable text rendering, or with -json the same object shape the daemon's
// GET /debug/trace answers with, so the artifact feeds the same tooling.
func writeTraceOut(path string, tracer *tbnet.Tracer, jsonOut bool, stderr io.Writer) error {
	spans := tbnet.TraceSnapshot(tracer, 0, 0)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if jsonOut {
		err = report.RenderSpansJSON(f, spans)
	} else {
		report.SpanTable(spans).Render(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	fmt.Fprintf(stderr, "wrote %d request span timeline(s) to %s\n", len(spans), path)
	return nil
}

// parseSweepWidths parses the -sweep flag: comma-separated static pool
// widths, each at least 1.
func parseSweepWidths(list string) ([]int, error) {
	var widths []int
	for _, s := range strings.Split(list, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		w, err := strconv.Atoi(s)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("sweep width %q: want an integer >= 1", s)
		}
		widths = append(widths, w)
	}
	if list != "" && len(widths) == 0 {
		return nil, fmt.Errorf("empty -sweep list")
	}
	return widths, nil
}

// runScenarioLeg builds one fleet, drives it through the shared workload, and
// condenses the outcome into a sweep point: the worst phase p99 the clients
// saw against the worker-seconds the fleet paid for.
func runScenarioLeg(label string, opts []tbnet.FleetOption, dep *tbnet.Deployment, spec scenario.Spec,
	sample func(int) *tbnet.Tensor) (report.AutoscalePoint, error) {
	f, err := tbnet.NewFleet(dep, opts...)
	if err != nil {
		return report.AutoscalePoint{}, fmt.Errorf("%s: %w", label, err)
	}
	defer f.Close()
	res, err := scenario.Run(context.Background(), f, spec, sample)
	if err != nil {
		return report.AutoscalePoint{}, fmt.Errorf("%s: %w", label, err)
	}
	ctl := tbnet.FleetAutoscaler(f)
	p := report.AutoscalePoint{
		Config:        label,
		Autoscale:     ctl != nil,
		WorkerSeconds: f.WorkerSeconds(),
		Offered:       res.Offered,
		Served:        res.Served,
		Shed:          res.Shed,
		Failed:        res.Failed,
	}
	for _, ph := range res.Phases {
		if ph.P99Ms > p.WorstP99Ms {
			p.WorstP99Ms = ph.P99Ms
		}
	}
	if ctl != nil {
		st := ctl.Stats()
		p.ScaleUps, p.ScaleDowns, p.Refused = st.ScaleUps, st.ScaleDowns, st.Refused
	}
	return p, nil
}

// attackReport is the -attack section of the scenario artifact: the
// per-tenant attack outcomes and, with -obfuscate, the per-layer overhead
// spend the tap charged the fleet.
type attackReport struct {
	Tenants         []report.AttackRow   `json:"tenants"`
	Obfuscation     []seceval.LayerStats `json:"obfuscation,omitempty"`
	OverheadSeconds float64              `json:"overhead_seconds"`
}

// buildAttackReport replays the architecture-inference attack against every
// (node, model) tenant's captured runs, with the isolated single-session hit
// rate on the same deployment as each tenant's baseline.
func buildAttackReport(tap *seceval.Tap, deps []cliconf.Model, seed int64) (*attackReport, error) {
	subjects := map[string]seceval.Subject{tbnet.DefaultModel: seceval.SubjectFor(deps[0].Dep)}
	depFor := map[string]*tbnet.Deployment{tbnet.DefaultModel: deps[0].Dep}
	for _, m := range deps[1:] {
		subjects[m.Name] = seceval.SubjectFor(m.Dep)
		depFor[m.Name] = m.Dep
	}
	type tenant struct{ node, model string }
	groups := map[tenant][]seceval.RunRecord{}
	for _, r := range tap.Runs() {
		k := tenant{r.Node, r.Model}
		groups[k] = append(groups[k], r)
	}
	keys := make([]tenant, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].node != keys[j].node {
			return keys[i].node < keys[j].node
		}
		return keys[i].model < keys[j].model
	})
	rep := &attackReport{Obfuscation: tap.OverheadStats(), OverheadSeconds: tap.OverheadSeconds()}
	isolated := map[string]float64{}
	for _, k := range keys {
		subj, ok := subjects[k.model]
		if !ok {
			continue
		}
		iso, ok := isolated[k.model]
		if !ok {
			views, _, err := seceval.CaptureIsolated(depFor[k.model], 3, seed)
			if err != nil {
				return nil, err
			}
			iso = seceval.AttackViews(views, subj).MeanHitRate
			isolated[k.model] = iso
		}
		r := seceval.AttackRecords(groups[k], subj)
		rep.Tenants = append(rep.Tenants, report.AttackRow{
			Node: k.node, Model: k.model, Runs: r.Runs, MeanBatch: r.MeanBatch,
			HitRate: r.MeanHitRate, IsolatedHitRate: iso,
		})
	}
	return rep, nil
}

// obfuscationTable renders the tap's per-layer obfuscation spend.
func obfuscationTable(atk *attackReport) *report.Table {
	t := &report.Table{
		Title:  fmt.Sprintf("Obfuscation overhead (total %.4fs modeled)", atk.OverheadSeconds),
		Header: []string{"Layer", "Runs", "Injected Events", "Padded Bytes", "Overhead (s)"},
	}
	for _, s := range atk.Obfuscation {
		t.AddRow(s.Layer, fmt.Sprintf("%d", s.Runs), fmt.Sprintf("%d", s.InjectedEvents),
			report.Bytes(s.PaddedBytes), fmt.Sprintf("%.4f", s.OverheadSeconds))
	}
	return t
}

// sameShape reports whether two sample shapes match exactly.
func sameShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runScenarioClient drives a running tbnetd daemon through the phased
// workload over real sockets: the hosted models and their sample shapes come
// from the daemon's /v1/models, the load is synthetic noise of the right
// shape, and traffic is split across every hosted model that shares the
// default model's shape. The report is the client-side view only — the
// daemon's own counters live on its /metrics endpoint.
func runScenarioClient(tgt *scenario.HTTPTarget, target string, phases []scenario.Phase,
	c *commonFlags, stdout, stderr io.Writer) int {
	ctx := context.Background()
	remote, err := tgt.Models(ctx)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	def := remote[0]
	for _, m := range remote {
		if m.Default {
			def = m
		}
	}
	shape := append([]int(nil), def.SampleShape...)
	if len(shape) == 4 {
		shape[0] = 1
	}
	rng := tbnet.NewRNG(c.seed)
	pool := make([]*tbnet.Tensor, 256)
	for i := range pool {
		x := tbnet.NewTensor(shape...)
		rng.FillNormal(x, 0, 1)
		pool[i] = x
	}
	sample := func(i int) *tbnet.Tensor { return pool[i%len(pool)] }

	var shares []scenario.ModelShare
	for _, m := range remote {
		if sameShape(m.SampleShape, def.SampleShape) {
			shares = append(shares, scenario.ModelShare{Name: m.Name, Weight: 1})
		}
	}
	if len(shares) > 1 {
		for i := range phases {
			phases[i].Models = shares
		}
	}

	fmt.Fprintf(stderr, "driving %d phase(s) against %s (%d hosted model(s), default %q)...\n",
		len(phases), target, len(remote), def.Name)
	res, err := scenario.Run(ctx, tgt,
		scenario.Spec{Name: "http:" + def.Name, Seed: c.seed, Phases: phases}, sample)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if c.jsonOut {
		if err := json.NewEncoder(stdout).Encode(struct {
			Scenario *scenario.Result `json:"scenario"`
		}{res}); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	report.ScenarioTable(res).Render(stdout)
	if len(res.PerModel) > 1 {
		report.ScenarioModelTable(res).Render(stdout)
	}
	fmt.Fprintf(stdout, "offered %d requests: %d served, %d shed, %d failed in %.2fs\n",
		res.Offered, res.Served, res.Shed, res.Failed, res.WallSeconds)
	return 0
}
