package serial

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"tbnet/internal/core"
	"tbnet/internal/quant"
	"tbnet/internal/tee"
	"tbnet/internal/tensor"
	"tbnet/internal/zoo"
)

// int8Artifact quantizes a finalized two-branch model into a v3 artifact.
func int8Artifact(t testing.TB, seed uint64, arch string, shape []int) (*Artifact, *core.TwoBranch) {
	t.Helper()
	tb := finalizedTwoBranch(t, seed, arch)
	return &Artifact{
		Precision:   precInt8,
		QMR:         quant.Quantize(tb.MR),
		QMT:         quant.Quantize(tb.MT),
		Align:       tb.Align,
		Device:      "rpi3",
		SampleShape: shape,
	}, tb
}

// assertQuantBitIdentical compares two quantized models record by record.
func assertQuantBitIdentical(t testing.TB, what string, a, b *quant.QuantizedModel) {
	t.Helper()
	assertModelsBitIdentical(t, what+" model", a.Model, b.Model)
	if len(a.Convs) != len(b.Convs) || len(a.Denses) != len(b.Denses) {
		t.Fatalf("%s: %d/%d convs, %d/%d denses", what,
			len(a.Convs), len(b.Convs), len(a.Denses), len(b.Denses))
	}
	for i := range a.Convs {
		qa, qb := a.Convs[i], b.Convs[i]
		if qa.OutC != qb.OutC || qa.Cols != qb.Cols ||
			!bytesEqI8(qa.Data, qb.Data) || !eqF32(qa.Scales, qb.Scales) || !eqF32(qa.Bias, qb.Bias) {
			t.Fatalf("%s: conv %d differs after round trip", what, i)
		}
	}
	for i := range a.Denses {
		qa, qb := a.Denses[i], b.Denses[i]
		if qa.In != qb.In || qa.Out != qb.Out ||
			!bytesEqI8(qa.Data, qb.Data) || !eqF32(qa.Scales, qb.Scales) || !eqF32(qa.Bias, qb.Bias) {
			t.Fatalf("%s: dense %d differs after round trip", what, i)
		}
	}
}

func bytesEqI8(a, b []int8) bool {
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

func eqF32(a, b []float32) bool {
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

// TestInt8DeploymentRoundTripInferenceExact is the v3 acceptance test: a
// saved-then-loaded int8 artifact carries bit-identical quantized records,
// so the restored deployment's integer arithmetic — and therefore its labels
// — match the original exactly.
func TestInt8DeploymentRoundTripInferenceExact(t *testing.T) {
	for _, arch := range []string{"vgg", "resnet", "mobilenet"} {
		arch := arch
		t.Run(arch, func(t *testing.T) {
			shape := []int{2, 3, 16, 16}
			art, _ := int8Artifact(t, 11, arch, shape)
			data := artifactBytes(t, art)
			got, err := LoadDeployment(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if got.Precision != precInt8 || got.TB != nil {
				t.Fatalf("loaded precision %q (TB=%v), want int8 with nil TB", got.Precision, got.TB)
			}
			assertQuantBitIdentical(t, "MR", art.QMR, got.QMR)
			assertQuantBitIdentical(t, "MT", art.QMT, got.QMT)
			orig, err := core.DeployQuantized(art.QMR, art.QMT, art.Align, tee.RaspberryPi3(), shape)
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := core.DeployQuantized(got.QMR, got.QMT, got.Align, tee.RaspberryPi3(), shape)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 4; trial++ {
				x := tensor.New(shape...)
				tensor.NewRNG(uint64(300+trial)).FillNormal(x, 0, 1)
				want, err := orig.Infer(x)
				if err != nil {
					t.Fatal(err)
				}
				gl, err := loaded.Infer(x)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if want[i] != gl[i] {
						t.Fatalf("trial %d label[%d] = %d, want %d", trial, i, gl[i], want[i])
					}
				}
			}
		})
	}
}

// TestInt8ArtifactSmallerThanF32 locks the on-disk half of the quantization
// win: the int8 artifact of the same model must be well under half the
// float32 artifact's size (int8 weights + scales vs float32 weights).
func TestInt8ArtifactSmallerThanF32(t *testing.T) {
	shape := []int{1, 3, 16, 16}
	art, tb := int8Artifact(t, 12, "vgg", shape)
	i8 := len(artifactBytes(t, art))
	f32 := len(artifactBytes(t, &Artifact{TB: tb, Device: "rpi3", SampleShape: shape}))
	if 2*i8 >= f32 {
		t.Fatalf("int8 artifact %dB is not under half the f32 artifact %dB", i8, f32)
	}
}

// TestF32ArtifactStaysVersion2 is the regression guard for existing readers:
// float32 artifacts must keep the version-2 on-disk format — header version
// field 2 — and load bit-identically, so artifacts cross older/newer builds.
func TestF32ArtifactStaysVersion2(t *testing.T) {
	tb := finalizedTwoBranch(t, 13, "vgg")
	data := artifactBytes(t, &Artifact{TB: tb, Device: "rpi3", SampleShape: []int{1, 3, 16, 16}})
	if v := binary.LittleEndian.Uint32(data[4:8]); v != 2 {
		t.Fatalf("f32 artifact written as version %d, want 2", v)
	}
	art, err := LoadDeployment(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if art.Precision != precF32 {
		t.Fatalf("f32 artifact loaded with precision %q", art.Precision)
	}
	assertModelsBitIdentical(t, "MR", tb.MR, art.TB.MR)
	assertModelsBitIdentical(t, "MT", tb.MT, art.TB.MT)
}

// TestInt8TruncationNeverPanics mirrors the v2 truncation sweep over the v3
// format: every proper prefix must fail with an error, never a panic.
func TestInt8TruncationNeverPanics(t *testing.T) {
	art, _ := int8Artifact(t, 14, "vgg", []int{1, 3, 16, 16})
	data := artifactBytes(t, art)
	for cut := 0; cut < len(data); cut += 1 + cut/16 {
		cut := cut
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("LoadDeployment panicked on %d-byte v3 prefix: %v", cut, r)
				}
			}()
			if _, err := LoadDeployment(bytes.NewReader(data[:cut])); err == nil {
				t.Fatalf("truncation to %d of %d bytes loaded successfully", cut, len(data))
			}
		}()
	}
}

// TestInt8CorruptionNeverPanics mirrors the v2 bit-flip sweep over the v3
// format: any flipped byte must surface as an error (usually the checksum).
func TestInt8CorruptionNeverPanics(t *testing.T) {
	art, _ := int8Artifact(t, 15, "vgg", []int{1, 3, 16, 16})
	data := artifactBytes(t, art)
	for pos := 0; pos < len(data); pos += 1 + pos/64 {
		pos := pos
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("LoadDeployment panicked on v3 flip at %d: %v", pos, r)
				}
			}()
			bad := append([]byte(nil), data...)
			bad[pos] ^= 0x5a
			if _, err := LoadDeployment(bytes.NewReader(bad)); err == nil {
				t.Fatalf("byte flip at %d of %d loaded successfully", pos, len(data))
			}
		}()
	}
}

// TestInt8ChecksumCatchesPayloadCorruption: a single bit deep in the int8
// weight payload parses structurally — the checksum must catch it.
func TestInt8ChecksumCatchesPayloadCorruption(t *testing.T) {
	art, _ := int8Artifact(t, 16, "mobilenet", []int{1, 3, 16, 16})
	data := artifactBytes(t, art)
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0x01
	if _, err := LoadDeployment(bytes.NewReader(bad)); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("err = %v, want ErrBadFormat", err)
	}
}

// TestSaveInt8RejectsBadArtifacts: int8 artifacts without quantized branches
// or with malformed shapes are refused at save time.
func TestSaveInt8RejectsBadArtifacts(t *testing.T) {
	art, _ := int8Artifact(t, 17, "vgg", []int{1, 3, 16, 16})
	var buf bytes.Buffer
	cases := []*Artifact{
		{Precision: precInt8, Device: "rpi3", SampleShape: []int{1, 3, 16, 16}},
		{Precision: precInt8, QMR: art.QMR, Device: "rpi3", SampleShape: []int{1, 3, 16, 16}},
		{Precision: precInt8, QMR: art.QMR, QMT: art.QMT, Device: "rpi3", SampleShape: []int{3, 16, 16}},
	}
	for i, a := range cases {
		if err := SaveDeployment(&buf, a); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("case %d: err = %v, want ErrBadFormat", i, err)
		}
	}
}

// FuzzLoadDeploymentInt8 is FuzzLoadDeployment seeded around the v3 header:
// truncated int8 bytes and the precision byte dispatch.
func FuzzLoadDeploymentInt8(f *testing.F) {
	art, _ := int8Artifact(f, 18, "vgg", []int{1, 3, 16, 16})
	var buf bytes.Buffer
	if err := SaveDeployment(&buf, art); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:16])
	f.Add([]byte{})
	// A v3 header claiming f32 followed by garbage exercises the precision
	// byte dispatch.
	hdr := append([]byte(nil), valid[:8]...)
	f.Add(append(hdr, []byte("not a body")...))
	// An elided 256 MiB convolution that no byte pays for.
	f.Add(unbackedConvArtifact(true))
	f.Fuzz(fuzzLoadAndDeploy)
}

// TestLoadDeploymentRejectsMismatchedInt8Record: the loader arms each branch
// from its records, so records that do not fit the branch they follow fail
// the load with ErrBadFormat instead of a later Deploy.
func TestLoadDeploymentRejectsMismatchedInt8Record(t *testing.T) {
	art, _ := int8Artifact(t, 27, "vgg", []int{1, 3, 16, 16})
	qm := art.QMT
	swapped := append([]quant.QuantizedConv(nil), qm.Convs...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	for name, bad := range map[string]*quant.QuantizedModel{
		"missing convolutions": {Model: qm.Model, Convs: qm.Convs[:1], Denses: qm.Denses},
		"surplus convolutions": {Model: qm.Model,
			Convs: append(append([]quant.QuantizedConv(nil), qm.Convs...), qm.Convs[0]), Denses: qm.Denses},
		"swapped convolutions": {Model: qm.Model, Convs: swapped, Denses: qm.Denses},
		"mismatched head": {Model: qm.Model, Convs: qm.Convs,
			Denses: []quant.QuantizedDense{{In: 1, Out: 1, Data: []int8{0}, Scales: []float32{1}, Bias: []float32{0}}}},
	} {
		t.Run(name, func(t *testing.T) {
			a := *art
			a.QMT = bad
			if _, err := LoadDeployment(bytes.NewReader(artifactBytes(t, &a))); !errors.Is(err, ErrBadFormat) {
				t.Fatalf("err = %v, want ErrBadFormat", err)
			}
		})
	}
}

// TestInt8LayersHoldOneLayout: an int8 branch holds its weights once. On
// every way to an int8 model — Quantize, LoadDeployment, DeployQuantized,
// DeployInt8, Replicate, ExtractedMR — every convolution and the head are
// armed and hold no float32 weights; Dequantize's copy is the reverse.
func TestInt8LayersHoldOneLayout(t *testing.T) {
	shape := []int{2, 3, 16, 16}
	for _, arch := range []string{"vgg", "resnet", "mobilenet"} {
		t.Run(arch, func(t *testing.T) {
			art, tb := int8Artifact(t, 31, arch, shape)
			loaded, err := LoadDeployment(bytes.NewReader(artifactBytes(t, art)))
			if err != nil {
				t.Fatal(err)
			}
			dep, err := loaded.Deploy(nil)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := core.DeployInt8(tb, tee.RaspberryPi3(), shape)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := dep.Replicate(1)
			if err != nil {
				t.Fatal(err)
			}
			for what, m := range map[string]*zoo.Model{
				"Quantize M_R": art.QMR.Model, "Quantize M_T": art.QMT.Model,
				"LoadDeployment M_R": loaded.QMR.Model, "LoadDeployment M_T": loaded.QMT.Model,
				"DeployQuantized M_R": dep.Snapshot().MR, "DeployQuantized M_T": dep.Snapshot().MT,
				"DeployInt8 M_R": fresh.Snapshot().MR, "DeployInt8 M_T": fresh.Snapshot().MT,
				"Replicate M_R": rep.Snapshot().MR, "Replicate M_T": rep.Snapshot().MT,
				"ExtractedMR": dep.ExtractedMR(),
			} {
				assertOneLayout(t, what, m, true)
			}
			assertOneLayout(t, "Dequantize", loaded.QMT.Dequantize(), false)
		})
	}
}

// TestInt8ModelRefusesFloat32Steps: what reads float32 weights — training,
// re-initialisation, quantization, the float32 model file — panics naming
// the int8 layer it meets, rather than dereferencing the weights it lacks.
func TestInt8ModelRefusesFloat32Steps(t *testing.T) {
	shape := []int{2, 3, 16, 16}
	for _, arch := range []string{"vgg", "resnet", "mobilenet"} {
		t.Run(arch, func(t *testing.T) {
			art, _ := int8Artifact(t, 37, arch, shape)
			m := art.QMR.Model
			x := tensor.New(shape...)
			tensor.NewRNG(38).FillNormal(x, 0, 1)
			first := m.Stages[0]
			for what, step := range map[string]func(){
				"head backward": func() {
					m.Backward(tensor.New(m.Forward(x, true).Shape()...))
				},
				"stage backward": func() {
					first.Backward(tensor.New(first.Forward(x, true).Shape()...))
				},
				"Reinitialize": func() { m.Clone().Reinitialize(tensor.NewRNG(39)) },
				"Quantize":     func() { quant.Quantize(m) },
				"SaveModel":    func() { _ = SaveModel(io.Discard, m) },
			} {
				func() {
					defer func() {
						if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "is an int8 layer") {
							t.Errorf("%s of an int8 model: recovered %v, want the int8 layer's panic", what, r)
						}
					}()
					step()
				}()
			}
			assertOneLayout(t, "the refused model", m, true)
		})
	}
}

// assertOneLayout requires every convolution and the head of m to hold
// exactly one layout of its weights: int8 (armed, no float32 weights) when
// int8 is set, float32 (weights, not armed) otherwise.
func assertOneLayout(t *testing.T, what string, m *zoo.Model, int8 bool) {
	t.Helper()
	check := func(layer string, l any) {
		f32 := !layerField(l, "W").IsNil()
		if f32 == int8 || int8Armed(l) != int8 {
			t.Fatalf("%s: %s holds float32 weights %v and int8 weights %v, want int8 only %v",
				what, layer, f32, int8Armed(l), int8)
		}
	}
	for _, s := range m.Stages {
		for i, c := range s.Convs() {
			check(fmt.Sprintf("%s layer %d", s.Name(), i), c)
		}
	}
	check("head", m.Head.FC)
}

// int8Armed reports whether a layer holds int8 weights: the packed weights
// its int8 path runs from, read by reflection, since no product path asks a
// depthwise or dense layer for them.
func int8Armed(layer any) bool { return !layerField(layer, "qw").IsNil() }

// layerField reads a layer's field by reflection, as it is, where the
// layer's accessor (nn.Weighted.Weight) would refuse an int8 layer.
func layerField(layer any, name string) reflect.Value {
	return reflect.ValueOf(layer).Elem().FieldByName(name)
}
