package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
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

// scenarioCmd is one parsed `tbnet scenario` invocation: everything the
// flags say, validated, before any model builds or socket opens.
type scenarioCmd struct {
	fs *flag.FlagSet
	c  *commonFlags
	ff *cliconf.FleetFlags
	mf *cliconf.ModelFlags

	phases    []scenario.Phase
	sweep     []int                // -sweep widths; non-empty selects sweep mode
	target    *scenario.HTTPTarget // -target daemon; non-nil selects client mode
	targetURL string
	traceOut  string
	tap       *seceval.Tap // -attack/-obfuscate capture; outlives the fleet
}

// runScenarioCmd implements `tbnet scenario`: drive a fleet — local, a
// ladder of local ones (-sweep), or a remote daemon's (-target) — through a
// phased workload of synthesized patterns or a replayed trace, and report
// per-phase latency, shed, and per-model throughput.
func runScenarioCmd(args []string, stdout, stderr io.Writer) error {
	sc, err := parseScenarioCmd(args, stderr)
	if err != nil {
		return err
	}
	switch {
	case sc.target != nil:
		return sc.runTarget(stdout, stderr)
	case len(sc.sweep) > 0:
		return sc.runSweep(stdout, stderr)
	}
	return sc.runLocal(stdout, stderr)
}

// parseScenarioCmd parses and validates the flags of all three modes. Every
// failure here is a usage error surfaced in milliseconds — a typo in -target,
// the spec, or a trace path never costs a minutes-long pipeline run first.
func parseScenarioCmd(args []string, stderr io.Writer) (*scenarioCmd, error) {
	fs, c := newFlagSet("scenario", stderr)
	sc := &scenarioCmd{fs: fs, c: c, ff: addFleetFlags(fs)}
	sc.mf = cliconf.AddModelFlags(fs, "model registry directory for bare -models names")
	spec := fs.String("spec", defaultSpec, "phases as name:pattern:rate:duration[:peak[:period]]")
	traceFile := fs.String("trace", "", "replay an arrival trace file instead of -spec")
	fs.StringVar(&sc.targetURL, "target", "", "drive a running tbnetd daemon at this base URL over HTTP (client mode)")
	apiKey := fs.String("api-key", "", "API key sent to a -target daemon with auth enabled")
	sweepList := fs.String("sweep", "", "also run the same workload at these static widths (comma-separated worker counts) and compare; implies -autoscale")
	fs.StringVar(&sc.traceOut, "trace-out", "", "write per-request span timelines to this file after the run (local fleet only)")
	attackRun := fs.Bool("attack", false, "capture attacker-visible traces during the run and replay the architecture-inference attack per tenant")
	obfuscate := cliconf.AddObfuscateFlag(fs,
		"trace-obfuscation chain applied at capture, e.g. pad:4096,shuffle:8,dummy:0.25; implies -attack")
	if err := cliconf.ParseFlags(fs, args); err != nil {
		return nil, err
	}
	var err error
	if sc.sweep, err = parseSweepWidths(*sweepList); err != nil {
		return nil, cliconf.Usage(err)
	}
	if len(sc.sweep) > 0 {
		sc.ff.Autoscale = true
	}
	if err := sc.ff.Validate(); err != nil {
		return nil, err
	}
	if obfuscate.Spec != "" {
		*attackRun = true
	}
	remote := sc.targetURL != ""
	switch {
	case remote && sc.ff.Autoscale:
		return nil, cliconf.Usagef("-autoscale/-sweep drive a local fleet; with -target the daemon owns its scaling")
	case remote && sc.traceOut != "":
		return nil, cliconf.Usagef("-trace-out records a local fleet's spans; against a -target daemon use GET /debug/trace")
	case sc.traceOut != "" && len(sc.sweep) > 0:
		return nil, cliconf.Usagef("-trace-out cannot attribute spans across the fleets of a -sweep comparison")
	case remote && *attackRun:
		return nil, cliconf.Usagef("-attack taps a local fleet's workers; a -target daemon captures with tbnetd -obfuscate")
	case *attackRun && len(sc.sweep) > 0:
		return nil, cliconf.Usagef("-attack cannot attribute traces across the fleets of a -sweep comparison")
	case remote && sc.mf.Models != "":
		return nil, cliconf.Usagef("-models is meaningless with -target: the daemon already hosts its models")
	}
	// Captured views are replayed against each tenant after the run, so the
	// tap keeps a deep record buffer.
	if sc.tap, err = obfuscate.Tap(int64(c.seed), 8192, *attackRun); err != nil {
		return nil, err
	}
	if remote {
		if sc.target, err = scenario.NewHTTPTarget(sc.targetURL, scenario.WithAPIKey(*apiKey)); err != nil {
			return nil, cliconf.Usage(err)
		}
	}
	if *traceFile != "" {
		tf, err := os.Open(*traceFile)
		if err != nil {
			return nil, cliconf.Usage(err)
		}
		arrivals, err := scenario.ParseTrace(tf)
		tf.Close()
		if err != nil {
			return nil, cliconf.Usage(err)
		}
		sc.phases = []scenario.Phase{{Name: "replay", Pattern: scenario.Replay, Trace: arrivals}}
	} else if sc.phases, err = parseScenarioSpec(*spec); err != nil {
		return nil, cliconf.Usage(err)
	}
	return sc, nil
}

// mixTraffic splits every phase's traffic evenly across the named models;
// one model needs no shares.
func (sc *scenarioCmd) mixTraffic(names []string) {
	if len(names) < 2 {
		return
	}
	shares := make([]scenario.ModelShare, len(names))
	for i, name := range names {
		shares[i] = scenario.ModelShare{Name: name, Weight: 1}
	}
	for i := range sc.phases {
		sc.phases[i].Models = shares
	}
}

// workload resolves a local run's models and the spec its fleet faces:
// mixed-model traffic over the default model plus every named extra.
func (sc *scenarioCmd) workload(stderr io.Writer) (*modelSource, scenario.Spec, error) {
	src, err := sc.c.source(sc.fs, sc.mf, sc.ff.Precision, stderr)
	if err != nil {
		return nil, scenario.Spec{}, err
	}
	names := []string{tbnet.DefaultModel}
	for _, m := range src.hosted[1:] {
		names = append(names, m.Name)
	}
	sc.mixTraffic(names)
	return src, scenario.Spec{Name: src.hosted[0].Name, Seed: sc.c.seed, Phases: sc.phases}, nil
}

// renderScenario prints the client-side view of a run: the per-phase table,
// the per-model one when traffic was mixed, whatever server-side tables the
// mode adds, and the closing tally.
func renderScenario(w io.Writer, res *scenario.Result, serverSide func()) {
	report.ScenarioTable(res).Render(w)
	if len(res.PerModel) > 1 {
		report.ScenarioModelTable(res).Render(w)
	}
	serverSide()
	fmt.Fprintf(w, "offered %d requests: %d served, %d shed, %d failed in %.2fs\n",
		res.Offered, res.Served, res.Shed, res.Failed, res.WallSeconds)
}

// runLocal drives one local fleet through the workload and reports the
// client-side phases beside the fleet's own snapshot — plus the controller's
// counters under -autoscale, the span timelines under -trace-out, and the
// replayed attack under -attack.
func (sc *scenarioCmd) runLocal(stdout, stderr io.Writer) error {
	src, spec, err := sc.workload(stderr)
	if err != nil {
		return err
	}
	// The span ring outlives the fleet, so the timelines are still readable
	// after the run tears the serving pools down.
	var tracer *tbnet.Tracer
	if sc.traceOut != "" {
		tracer = tbnet.NewTracer(4096)
	}
	f, err := sc.ff.Start(src.hosted, 0, tracer, sc.tap)
	if err != nil {
		return err
	}
	defer f.Close()

	fmt.Fprintf(stderr, "driving %d phase(s) over %q routing (default model: %s)...\n",
		len(sc.phases), sc.ff.Policy, spec.Name)
	res, err := scenario.Run(context.Background(), f, spec, src.sample)
	if err != nil {
		return err
	}
	st := f.Stats()
	if tracer != nil {
		if err := writeTraceOut(sc.traceOut, tracer, sc.c.jsonOut, stderr); err != nil {
			return err
		}
	}
	var atk *attackReport
	if sc.tap != nil {
		if atk, err = buildAttackReport(sc.tap, src.hosted, int64(sc.c.seed)); err != nil {
			return err
		}
	}

	if sc.c.jsonOut {
		// One artifact object: the scenario's per-phase client-side figures
		// plus the fleet's own server-side snapshot — and, when the
		// controller ran, its counters.
		var ast *tbnet.AutoscaleStats
		if ctl := tbnet.FleetAutoscaler(f); ctl != nil {
			s := ctl.Stats()
			ast = &s
		}
		return json.NewEncoder(stdout).Encode(struct {
			Scenario  *scenario.Result      `json:"scenario"`
			Fleet     fleet.Stats           `json:"fleet"`
			Autoscale *tbnet.AutoscaleStats `json:"autoscale,omitempty"`
			Attack    *attackReport         `json:"attack,omitempty"`
		}{res, st, ast, atk})
	}
	renderScenario(stdout, res, func() {
		report.FleetTable(st).Render(stdout)
		renderAutoscale(stdout, f)
		if atk != nil {
			report.AttackTable(atk.Tenants).Render(stdout)
			if len(atk.Obfuscation) > 0 {
				obfuscationTable(atk).Render(stdout)
			}
		}
	})
	return nil
}

// runSweep is the static-vs-autoscale comparison: the autoscaled fleet (pin
// 0) and each static width face the same workload back to back, one fleet at
// a time so the legs never contend for the host.
func (sc *scenarioCmd) runSweep(stdout, stderr io.Writer) error {
	src, spec, err := sc.workload(stderr)
	if err != nil {
		return err
	}
	var points []report.AutoscalePoint
	for _, pin := range append([]int{0}, sc.sweep...) {
		label := fmt.Sprintf("static-%d", pin)
		if pin == 0 {
			label = fmt.Sprintf("autoscale[%d,%d]", sc.ff.AutoscaleMin, sc.ff.AutoscaleMax)
		}
		fmt.Fprintf(stderr, "driving %d phase(s) over %q routing, %s...\n", len(sc.phases), sc.ff.Policy, label)
		p, err := sc.runLeg(label, pin, src, spec)
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		points = append(points, p)
	}
	if sc.c.jsonOut {
		return report.RenderAutoscaleJSON(stdout, points)
	}
	report.AutoscaleSweepTable(points).Render(stdout)
	return nil
}

// writeTraceOut dumps every span the run's tracer captured to path — the
// SpanTable text rendering, or with -json the same object shape the daemon's
// GET /debug/trace answers with, so the artifact feeds the same tooling.
func writeTraceOut(path string, tracer *tbnet.Tracer, jsonOut bool, stderr io.Writer) error {
	spans := tracer.Snapshot(0, 0)
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

// runLeg builds one fleet at the pinned width, drives it through the shared
// workload, and condenses the outcome into a sweep point: the worst phase p99
// the clients saw against the worker-seconds the fleet paid for.
func (sc *scenarioCmd) runLeg(label string, pin int, src *modelSource, spec scenario.Spec) (report.AutoscalePoint, error) {
	f, err := sc.ff.Start(src.hosted, pin, nil, nil)
	if err != nil {
		return report.AutoscalePoint{}, err
	}
	defer f.Close()
	res, err := scenario.Run(context.Background(), f, spec, src.sample)
	if err != nil {
		return report.AutoscalePoint{}, err
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
			// Every isolated probe sees the same view: attack it once.
			views, _, err := seceval.CaptureIsolated(depFor[k.model], 1, seed)
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

// runTarget drives a running tbnetd daemon through the phased workload over
// real sockets: the hosted models and their sample shapes come from the
// daemon's /v1/models, the load is synthetic noise of the right shape, and
// traffic is split across every hosted model that shares the default model's
// shape. The report is the client-side view only — the daemon's own counters
// live on its /metrics endpoint.
func (sc *scenarioCmd) runTarget(stdout, stderr io.Writer) error {
	ctx := context.Background()
	remote, err := sc.target.Models(ctx)
	if err != nil {
		return err
	}
	def := remote[0]
	for _, m := range remote {
		if m.Default {
			def = m
		}
	}
	var names []string
	for _, m := range remote {
		if slices.Equal(m.SampleShape, def.SampleShape) {
			names = append(names, m.Name)
		}
	}
	sc.mixTraffic(names)

	fmt.Fprintf(stderr, "driving %d phase(s) against %s (%d hosted model(s), default %q)...\n",
		len(sc.phases), sc.targetURL, len(remote), def.Name)
	res, err := scenario.Run(ctx, sc.target,
		scenario.Spec{Name: "http:" + def.Name, Seed: sc.c.seed, Phases: sc.phases},
		noiseSource(def.SampleShape, sc.c.seed).sample)
	if err != nil {
		return err
	}
	if sc.c.jsonOut {
		return json.NewEncoder(stdout).Encode(struct {
			Scenario *scenario.Result `json:"scenario"`
		}{res})
	}
	renderScenario(stdout, res, func() {})
	return nil
}
