package seceval

import (
	"fmt"

	"tbnet/internal/attack"
	"tbnet/internal/core"
	"tbnet/internal/tee"
	"tbnet/internal/zoo"
)

// Subject is what the attacker holds and targets: the stolen REE branch
// (readable in plaintext), the query shape it probes with, and the true
// secure branch the guesses are scored against.
type Subject struct {
	// StolenMR is the extracted normal-world branch.
	StolenMR *zoo.Model
	// MT is the ground-truth secure branch (scoring only — the attacker
	// never sees it).
	MT *zoo.Model
	// InShape is the attacker's query shape [N,C,H,W]; the attacker chose
	// the query, so it knows the shape.
	InShape []int
}

// SubjectFor derives the attack subject from a live deployment: the
// extracted M_R, the deployed M_T, and a single-sample probe shape.
func SubjectFor(dep *core.Deployment) Subject {
	shape := dep.SampleShape()
	if len(shape) > 0 {
		shape[0] = 1
	}
	return Subject{StolenMR: dep.ExtractedMR(), MT: dep.Snapshot().MT, InShape: shape}
}

// AttackResult summarizes replaying the architecture-inference attack over
// a set of captured runs.
type AttackResult struct {
	// Runs is the number of attacked views.
	Runs int
	// MeanHitRate is the mean ArchGuess.HitRate across views.
	MeanHitRate float64
	// MaxHitRate is the worst single-view leak.
	MaxHitRate float64
	// MeanBatch is the average coalesced sample count per run (0 when
	// unknown).
	MeanBatch float64
}

// AttackViews runs attack.InferArchitecture over each captured view and
// scores the guesses against the subject's secure branch.
func AttackViews(views [][]tee.Event, s Subject) AttackResult {
	var r AttackResult
	for _, v := range views {
		g := attack.InferArchitecture(v, s.StolenMR, s.InShape)
		hr := g.HitRate(s.MT)
		r.Runs++
		r.MeanHitRate += hr
		if hr > r.MaxHitRate {
			r.MaxHitRate = hr
		}
	}
	if r.Runs > 0 {
		r.MeanHitRate /= float64(r.Runs)
	}
	return r
}

// AttackRecords is AttackViews over tap records, additionally reporting the
// mean coalesced batch size of the attacked runs.
func AttackRecords(recs []RunRecord, s Subject) AttackResult {
	views := make([][]tee.Event, len(recs))
	batch := 0
	for i, rec := range recs {
		views[i] = rec.Events
		batch += rec.Batch
	}
	r := AttackViews(views, s)
	if len(recs) > 0 {
		r.MeanBatch = float64(batch) / float64(len(recs))
	}
	return r
}

// CaptureIsolated replays the attacker's ideal conditions against a
// deployment: a private single-session replica in measurement mode, one
// probe per trace, no co-tenants, no batching. A probe's view and cost are
// fixed by the replica's batch-1 script, so no inference runs: it returns
// that script's attacker view probes times (a fresh copy each, for layers
// that rewrite views) and its price on the replica — the per-run baseline
// the frontier prices overhead against. seed is unused: an unobfuscated
// view does not depend on the probe's input.
func CaptureIsolated(dep *core.Deployment, probes int, seed int64) (views [][]tee.Event, runSeconds float64, err error) {
	if probes < 1 {
		probes = 1
	}
	// The batch-1 replica's secure footprint is what SGX's EPC paging
	// prices, so the price is the replica's, not dep's.
	rep, err := dep.ReplicateOn(tee.Unbounded(dep.Device), 1, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("seceval: isolated capture: %w", err)
	}
	script, _ := rep.Script(1) // a batch-1 replica serves batch 1
	runSeconds, _ = rep.ModeledLatency(1)
	for i := 0; i < probes; i++ {
		views = append(views, script.AttackerView())
	}
	return views, runSeconds, nil
}
