package experiments

import (
	"fmt"
	"io"

	"tbnet/internal/report"
)

// Experiment is one named artifact of the evaluation.
type Experiment struct {
	// Name is what `tbnet experiment <name>` selects it by.
	Name string
	// Render regenerates the artifact on l and writes it to w: as text, or
	// with asJSON in its machine-readable form. Text rendering cannot fail.
	Render func(l *Lab, w io.Writer, asJSON bool) error
}

// table is the catalog entry of an artifact that is one report.Table.
func table(name string, build func(*Lab) *report.Table) Experiment {
	return Experiment{name, func(l *Lab, w io.Writer, asJSON bool) error {
		t := build(l)
		if asJSON {
			return t.RenderJSON(w)
		}
		t.Render(w)
		return nil
	}}
}

// Catalog returns every artifact, in paper order followed by the extensions.
// It is the only list of experiments: `tbnet experiment all` (RunAll) is the
// catalog in this order, a single name is looked up in it, and the CLI's
// usage text is built from it.
func Catalog() []Experiment {
	return []Experiment{
		table("table1", (*Lab).Table1),
		{"fig2", renderFig2},
		table("table2", (*Lab).Table2),
		table("fig3", (*Lab).Fig3),
		table("table3", (*Lab).Table3),
		{"fig4", renderFig4},
		table("ablation", (*Lab).Ablation),
		table("hw", (*Lab).TableHW),
		table("quant", (*Lab).TableQuant),
		table("fleet", (*Lab).TableFleet),
		table("secdefense", (*Lab).TableSecDefense),
		table("ablation-ranking", (*Lab).AblationPruneRanking),
		table("ablation-rollback", (*Lab).AblationRollback),
		table("ablation-lambda", (*Lab).AblationLambda),
		table("ablation-quant", (*Lab).AblationQuant),
	}
}

// Lookup finds a catalog entry by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Catalog() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

func renderFig2(l *Lab, w io.Writer, asJSON bool) error {
	const title = "Fig. 2: attacker fine-tuning M_R of VGG18-S under varying data availability"
	if asJSON {
		return report.RenderSeriesJSON(w, title, l.Fig2())
	}
	report.RenderSeries(w, title, l.Fig2())
	return nil
}

func renderFig4(l *Lab, w io.Writer, asJSON bool) error {
	mr, mt := l.Fig4()
	if asJSON {
		if err := mr.RenderJSON(w, "M_R |gamma|"); err != nil {
			return err
		}
		return mt.RenderJSON(w, "M_T |gamma|")
	}
	fmt.Fprintln(w, "Fig. 4: BN weight distributions after knowledge transfer (VGG18-S/SynthC10)")
	mr.Render(w, "M_R |gamma|", 40)
	mt.Render(w, "M_T |gamma|", 40)
	fmt.Fprintf(w, "mean |gamma|: M_R %.4f vs M_T %.4f\n", mr.Mean(), mt.Mean())
	return nil
}

// RunAll regenerates every catalog entry in order, as text, one blank line
// between artifacts.
func (l *Lab) RunAll(w io.Writer) {
	for i, e := range Catalog() {
		if i > 0 {
			fmt.Fprintln(w)
		}
		_ = e.Render(l, w, false) // text rendering cannot fail
	}
}
