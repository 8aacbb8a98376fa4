package zoo_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"tbnet/internal/profile"
	"tbnet/internal/quant"
	"tbnet/internal/serial"
	"tbnet/internal/tensor"
	"tbnet/internal/zoo"
)

var update = flag.Bool("update", false, "rewrite testdata/stages.golden from the current code")

func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func hashFloats(vs []float32) string {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func hashI8(vs []int8) string {
	h := fnv.New64a()
	for _, v := range vs {
		h.Write([]byte{byte(v)})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// characterize writes everything the consumers of a stage's layer list read
// off one model: the quantized record order and dims, the three execution
// forms' logits, the cost model, the prunable groups, and what Reinitialize
// rewrites (by parameter name, and as the saved bytes of the result, which
// also cover the batch norms' running statistics).
func characterize(w *strings.Builder, name string, m *zoo.Model) {
	fmt.Fprintf(w, "== %s (%s, %d stages)\n", name, m.Name, len(m.Stages))
	x := tensor.New(2, 3, 16, 16)
	tensor.NewRNG(42).FillNormal(x, 0, 1)

	fmt.Fprint(w, "groups:")
	for _, gr := range m.Groups() {
		fmt.Fprintf(w, " %d:%s:%d:%s", gr.Stage, gr.Kind, m.GroupSize(gr), m.GroupGamma(gr).Name)
	}
	fmt.Fprintln(w)

	qm := quant.Quantize(m)
	for i, q := range qm.Convs {
		fmt.Fprintf(w, "conv %d: %dx%d bias=%d data=%s scales=%s\n",
			i, q.OutC, q.Cols, len(q.Bias), hashI8(q.Data), hashFloats(q.Scales))
	}
	for i, q := range qm.Denses {
		fmt.Fprintf(w, "dense %d: %dx%d bias=%d data=%s scales=%s\n",
			i, q.In, q.Out, len(q.Bias), hashI8(q.Data), hashFloats(q.Scales))
	}
	fmt.Fprintf(w, "quantized param bytes: %d\n", qm.ParamBytes())
	fmt.Fprintf(w, "logits f32: %s\n", hashFloats(m.Forward(x.Clone(), false).Data()))
	fmt.Fprintf(w, "logits dequantized: %s\n", hashFloats(qm.Dequantize().Forward(x.Clone(), false).Data()))
	fmt.Fprintf(w, "logits int8: %s\n", hashFloats(qm.Model.Forward(x.Clone(), false).Data()))

	mc := profile.Profile(m, x.Shape())
	for _, c := range append(append([]profile.Cost(nil), mc.Stages...), mc.Head) {
		fmt.Fprintf(w, "cost %s: flops=%s params=%d in=%d out=%d\n", c.Name, g(c.Flops), c.ParamBytes, c.InBytes, c.OutBytes)
	}
	fmt.Fprintf(w, "total: flops=%s params=%d peak=%d secure=%d\n",
		g(mc.TotalFlops()), mc.TotalParamBytes(), mc.PeakActivationBytes(), mc.SecureFootprintBytes())

	// Move every parameter and every running statistic off its initial
	// value, so a layer Reinitialize skips shows up as an unchanged name
	// and in the saved bytes.
	r := m.Clone()
	r.Forward(x.Clone(), true)
	for _, p := range r.Params() {
		p.Value.Fill(0.25)
	}
	r.Reinitialize(tensor.NewRNG(9))
	fmt.Fprint(w, "reinit rewrites:")
	for _, p := range r.Params() {
		changed := false
		for _, v := range p.Value.Data() {
			if v != 0.25 {
				changed = true
				break
			}
		}
		if changed {
			fmt.Fprintf(w, " %s", p.Name)
		} else {
			fmt.Fprintf(w, " (%s unchanged)", p.Name)
		}
	}
	fmt.Fprintln(w)
	var buf bytes.Buffer
	if err := serial.SaveModel(&buf, r); err != nil {
		fmt.Fprintf(w, "save: %v\n", err)
	}
	fmt.Fprintf(w, "reinit saved sha256: %x\n", sha256.Sum256(buf.Bytes()))
}

// TestStageCharacterization pins what quant, profile, the pruning groups and
// Reinitialize report for the three evaluated architectures (and the
// skip-stripped ResNet that initialises M_R) against values recorded while
// each of them still switched on the concrete stage types. It must pass
// unmodified across any change to how a stage describes itself.
func TestStageCharacterization(t *testing.T) {
	var w strings.Builder
	for _, name := range []string{"vgg", "resnet", "mobilenet"} {
		build, ok := zoo.ArchByName(name)
		if !ok {
			t.Fatalf("no architecture %q", name)
		}
		m := build(10, tensor.NewRNG(7))
		characterize(&w, name, m)
		if name == "resnet" {
			characterize(&w, "resnet-plain", zoo.StripSkips(m))
		}
	}
	const path = "testdata/stages.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(w.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(w.String(), "\n"), strings.Split(string(want), "\n")
	for i := range got {
		if i >= len(wantLines) || got[i] != wantLines[i] {
			wl := "<end of file>"
			if i < len(wantLines) {
				wl = wantLines[i]
			}
			t.Fatalf("line %d differs from %s\n got: %s\nwant: %s", i+1, path, got[i], wl)
		}
	}
	if len(got) != len(wantLines) {
		t.Fatalf("%s has %d lines, characterization printed %d", path, len(wantLines), len(got))
	}
}
