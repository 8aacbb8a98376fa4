package tbnet

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, each regenerating the artifact end to end (train → transfer →
// prune → finalize → measure) at the micro scale, plus the deployed
// single-image inference path. A full-scale run of every artifact is
// `go run ./cmd/tbnet experiment all -scale full`.
//
// The artifact benchmarks report domain metrics via b.ReportMetric:
// accuracy points, memory-reduction ratios, and modeled latency ratios — the
// quantities whose *shape* the paper's results are judged by.

import (
	"strconv"
	"strings"
	"testing"

	"tbnet/internal/core"
	"tbnet/internal/experiments"
	"tbnet/internal/report"
	"tbnet/internal/tee"
)

func benchLab(seed uint64) *experiments.Lab {
	micro, _ := core.ScaleByName("micro")
	return experiments.NewLab(experiments.Config{Scale: micro, Seed: seed})
}

// skipInShort keeps the artifact-regeneration benchmarks out of CI's
// short-mode bench smoke run: each iteration trains full micro pipelines,
// which is too heavy for a per-commit gate.
func skipInShort(b *testing.B) {
	if testing.Short() {
		b.Skip("artifact benchmark skipped in short mode")
	}
}

// parseCell converts the report's "12.34%" and "2.45x" cells back to numbers.
func parseCell(s string) float64 {
	v, err := strconv.ParseFloat(strings.TrimRight(s, "%x"), 64)
	if err != nil {
		panic(err)
	}
	return v
}

// benchColumnMean regenerates one table per iteration (a fresh lab per seed)
// and reports the mean of column col as metric.
func benchColumnMean(b *testing.B, table func(*experiments.Lab) *report.Table, col int, metric string) {
	skipInShort(b)
	for i := 0; i < b.N; i++ {
		t := table(benchLab(uint64(i + 1)))
		var sum float64
		for _, r := range t.Rows {
			sum += parseCell(r[col])
		}
		b.ReportMetric(sum/float64(len(t.Rows)), metric)
	}
}

// BenchmarkTable1 regenerates Table 1 (victim/TBNet/attack accuracy and the
// protection gap) across the four architecture×dataset combinations.
func BenchmarkTable1(b *testing.B) { benchColumnMean(b, (*experiments.Lab).Table1, 5, "gap-pts") }

// BenchmarkFig2 regenerates Fig. 2 (fine-tuning attack vs data availability).
func BenchmarkFig2(b *testing.B) {
	skipInShort(b)
	for i := 0; i < b.N; i++ {
		lab := benchLab(uint64(i + 1))
		series := lab.Fig2()
		// Metric: attacker accuracy at 100% data minus the TBNet reference
		// (negative = attacker stays below TBNet, the paper's claim).
		var last, ref float64
		for _, s := range series {
			pts := s.Points
			if strings.HasPrefix(s.Name, "fine-tuned") {
				last = pts[len(pts)-1][1]
			} else if ref == 0 {
				ref = pts[0][1]
			}
		}
		b.ReportMetric(100*(last-ref), "atk-minus-tbnet-pts")
	}
}

// BenchmarkTable2 regenerates Table 2 (best possible M_T alone vs TBNet).
func BenchmarkTable2(b *testing.B) {
	benchColumnMean(b, (*experiments.Lab).Table2, 3, "mt-alone-drop-pts")
}

// BenchmarkFig3 regenerates Fig. 3 (secure-memory usage baseline vs TBNet).
func BenchmarkFig3(b *testing.B) { benchColumnMean(b, (*experiments.Lab).Fig3, 3, "mem-reduction-x") }

// BenchmarkTable3 regenerates Table 3 (inference latency baseline vs TBNet).
func BenchmarkTable3(b *testing.B) {
	benchColumnMean(b, (*experiments.Lab).Table3, 3, "latency-reduction-x")
}

// BenchmarkFig4 regenerates Fig. 4 (BN weight distributions after transfer).
func BenchmarkFig4(b *testing.B) {
	skipInShort(b)
	for i := 0; i < b.N; i++ {
		lab := benchLab(uint64(i + 1))
		mr, mt := lab.Fig4()
		b.ReportMetric(mr.Mean()-mt.Mean(), "gammaR-minus-gammaT")
	}
}

// BenchmarkAblation regenerates the prior-art strategy comparison.
func BenchmarkAblation(b *testing.B) {
	skipInShort(b)
	for i := 0; i < b.N; i++ {
		lab := benchLab(uint64(i + 1))
		t := lab.Ablation()
		if len(t.Rows) != 5 {
			b.Fatalf("ablation rows = %d", len(t.Rows))
		}
	}
}

// BenchmarkDeployedInference measures one single-image inference through the
// finalized two-branch deployment (REE stages + enclave invocations), the
// steady-state serving path.
func BenchmarkDeployedInference(b *testing.B) {
	skipInShort(b)
	lab := benchLab(1)
	p := lab.Pipeline(experiments.Combo{Arch: "vgg", Dataset: "c10"})
	device := tee.Unbounded(tee.RaspberryPi3())
	dep, err := Deploy(p.TB, device, []int{1, 3, 16, 16})
	if err != nil {
		b.Fatal(err)
	}
	x := NewTensor(1, 3, 16, 16)
	NewRNG(7).FillNormal(x, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dep.Infer(x); err != nil {
			b.Fatal(err)
		}
	}
}
