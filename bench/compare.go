package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// verdict is compare's judgement of one workload × end-to-end metric.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// judge compares the runs of one metric on one workload: a are the base
// side's values, b the candidate's. The candidate is worse when its median is
// worse than the base median by more than the bound. Where either side's
// run-to-run spread is wider than the bound the difference cannot be told
// from noise, so the pairing is unresolved — unless every candidate run
// reads better than every base run.
func judge(d metricDef, a, b []float64) (medA, medB float64, v verdict) {
	medA, medB = median(a), median(b)
	worsening := (medB - medA) / medA
	allBetter := slices.Min(a) > slices.Max(b)
	if d.Better == "higher" {
		worsening = -worsening
		allBetter = slices.Max(a) < slices.Min(b)
	}
	switch {
	case (spread(a) > d.Bound || spread(b) > d.Bound) && !allBetter:
		return medA, medB, verdictUnresolved
	case worsening > d.Bound:
		return medA, medB, verdictWorse
	}
	return medA, medB, verdictOK
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// failedShare is the share of a workload's operations that failed, over all
// of its runs.
func failedShare(runs []runRecord) float64 {
	attempted, failed := 0, 0
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// compareMain prints one row per workload × end-to-end metric for two
// result.json files — both medians, the ratio with its base, each side's
// spread, and the verdict — and returns non-zero when any pairing is worse or
// the candidate failed a higher share of its operations.
func compareMain(args []string, out io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare BASE.json CANDIDATE.json")
		return 2
	}
	var reps [2]*report
	for i, path := range args {
		rep, err := readReport(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 2
		}
		reps[i] = rep
	}
	return compareReports(reps[0], reps[1], out)
}

func compareReports(base, cand *report, out io.Writer) int {
	bad := 0
	fmt.Fprintf(out, "%-18s %-18s %12s %12s %9s %8s %8s %6s  %s\n",
		"workload", "metric", "base", "candidate", "cand/base", "spread_b", "spread_c", "bound", "verdict")
	for _, w := range workloads {
		a, b := base.Workloads[w.name], cand.Workloads[w.name]
		if len(a) == 0 || len(b) == 0 {
			fmt.Fprintf(out, "%-18s missing from one side\n", w.name)
			bad++
			continue
		}
		for _, d := range endToEnd {
			var as, bs []float64
			for _, r := range a {
				as = append(as, r.EndToEnd[d.Name])
			}
			for _, r := range b {
				bs = append(bs, r.EndToEnd[d.Name])
			}
			medA, medB, v := judge(d, as, bs)
			if v == verdictWorse {
				bad++
			}
			fmt.Fprintf(out, "%-18s %-18s %12.4f %12.4f %9.4f %7.1f%% %7.1f%% %5.0f%%  %s (%s is better; %d vs %d runs)\n",
				w.name, d.Name, medA, medB, medB/medA, spread(as)*100, spread(bs)*100, d.Bound*100, v, d.Better, len(as), len(bs))
		}
		if fa, fb := failedShare(a), failedShare(b); fb > fa {
			fmt.Fprintf(out, "%-18s failed share rose from %.6f to %.6f\n", w.name, fa, fb)
			bad++
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}
