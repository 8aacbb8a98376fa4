package serial

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
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
	return &Artifact{TB: quantized(tb), Device: "rpi3", SampleShape: shape}, tb
}

// quantized returns tb with both branches armed for int8 (quant.Quantize).
func quantized(tb *core.TwoBranch) *core.TwoBranch {
	return &core.TwoBranch{MR: quant.Quantize(tb.MR), MT: quant.Quantize(tb.MT), Align: tb.Align, Finalized: true}
}

// assertQuantBitIdentical compares two armed models parameter by parameter
// and record by record (quant.Records).
func assertQuantBitIdentical(t testing.TB, what string, a, b *zoo.Model) {
	t.Helper()
	assertModelsBitIdentical(t, what+" model", a, b)
	ac, ad := quant.Records(a)
	bc, bd := quant.Records(b)
	if !reflect.DeepEqual(append(ac, ad...), append(bc, bd...)) {
		t.Fatalf("%s: the int8 records differ after the round trip", what)
	}
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
			if got.Precision() != precInt8 {
				t.Fatalf("loaded precision %q, want int8", got.Precision())
			}
			assertQuantBitIdentical(t, "MR", art.TB.MR, got.TB.MR)
			assertQuantBitIdentical(t, "MT", art.TB.MT, got.TB.MT)
			orig, err := core.Deploy(art.TB, tee.RaspberryPi3(), shape)
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := core.Deploy(got.TB, tee.RaspberryPi3(), shape)
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
	if art.Precision() != precF32 {
		t.Fatalf("f32 artifact loaded with precision %q", art.Precision())
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

// TestSaveInt8RejectsBadArtifacts: int8 artifacts missing a branch, with
// branches armed for two precisions, or with malformed shapes are refused
// at save time.
func TestSaveInt8RejectsBadArtifacts(t *testing.T) {
	art, tb := int8Artifact(t, 17, "vgg", []int{1, 3, 16, 16})
	var buf bytes.Buffer
	cases := []*Artifact{
		{TB: &core.TwoBranch{MR: art.TB.MR, Finalized: true}, Device: "rpi3", SampleShape: []int{1, 3, 16, 16}},
		{TB: &core.TwoBranch{MR: art.TB.MR, MT: tb.MT, Align: tb.Align, Finalized: true},
			Device: "rpi3", SampleShape: []int{1, 3, 16, 16}},
		{TB: art.TB, Device: "rpi3", SampleShape: []int{3, 16, 16}},
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
	// Pruned widths, whose rows the int8 tile layout pads.
	pruned, _ := int8Artifact(f, 19, "pruned-vgg", []int{1, 3, 16, 16})
	f.Add(artifactBytes(f, pruned))
	f.Fuzz(fuzzLoadAndDeploy)
}

// TestLoadDeploymentRejectsMismatchedInt8Record: the loader arms each branch
// from its records, so records that do not fit the branch they follow fail
// the load with ErrBadFormat instead of a later Deploy.
func TestLoadDeploymentRejectsMismatchedInt8Record(t *testing.T) {
	art, _ := int8Artifact(t, 27, "vgg", []int{1, 3, 16, 16})
	convs, denses := quant.Records(art.TB.MT)
	swapped := append([]quant.Record(nil), convs...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	biased := append([]quant.Record(nil), convs...)
	biased[0].Bias = make([]float32, biased[0].Rows)
	for name, bad := range map[string]struct {
		convs, denses []quant.Record
	}{
		"missing convolutions": {convs[:1], denses},
		"surplus convolutions": {append(append([]quant.Record(nil), convs...), convs[0]), denses},
		"swapped convolutions": {swapped, denses},
		"mismatched head": {convs,
			[]quant.Record{{Rows: 1, Cols: 1, Data: []int8{0}, Scales: []float32{1}, Bias: []float32{0}}}},
		"bias the layer lacks": {biased, denses},
	} {
		t.Run(name, func(t *testing.T) {
			data := int8ArtifactWithRecords(t, art, bad.convs, bad.denses)
			if _, err := LoadDeployment(bytes.NewReader(data)); !errors.Is(err, ErrBadFormat) {
				t.Fatalf("err = %v, want ErrBadFormat", err)
			}
		})
	}
}

// int8ArtifactWithRecords is SaveDeployment of the int8 artifact art with
// M_T's weight records replaced by convs and denses.
func int8ArtifactWithRecords(t *testing.T, art *Artifact, convs, denses []quant.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := newWriter(&buf)
	w.u32(magicDeploy)
	w.u32(deployVersion)
	w.beginChecksum()
	w.str(art.Device)
	w.i32(len(art.SampleShape))
	for _, d := range art.SampleShape {
		w.i32(d)
	}
	w.u8(precByteInt8)
	saveInt8Branch(w, art.TB.MR)
	saveModelBody(w, art.TB.MT, true)
	w.records(convs, false)
	w.records(denses, true)
	w.align(art.TB.Align)
	w.endChecksum()
	if err := w.flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadDeploymentRejectsInt8RecordBiasMismatch: a v3 artifact carries
// each layer's bias twice, in the weight-elided body and in the layer's
// int8 record. An artifact whose two copies differ in one float — re-sealed,
// so the checksum passes — fails with ErrBadFormat, rather than inferring
// with one copy and re-saving the other.
func TestLoadDeploymentRejectsInt8RecordBiasMismatch(t *testing.T) {
	tb := finalizedTwoBranch(t, 28, "vgg")
	for i := range tb.MT.Head.FC.B.Value.Data() {
		tb.MT.Head.FC.B.Value.Data()[i] = 0.25 + float32(i) // a pattern no other field holds
	}
	data := artifactBytes(t, &Artifact{TB: quantized(tb), Device: "rpi3", SampleShape: []int{1, 3, 16, 16}})
	var bias []byte
	for _, v := range tb.MT.Head.FC.B.Value.Data() {
		bias = binary.LittleEndian.AppendUint32(bias, math.Float32bits(v))
	}
	body, record := bytes.Index(data, bias), bytes.LastIndex(data, bias)
	if body < 0 || body == record {
		t.Fatalf("M_T's head bias found at %d and %d, want one copy in the body and one in the record", body, record)
	}
	bad := append([]byte(nil), data...)
	bad[record] ^= 1 // the lowest mantissa bit of the record's first bias
	if _, err := LoadDeployment(bytes.NewReader(resealed(bad))); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("record bias differing from the body's: err = %v, want ErrBadFormat", err)
	}
	if _, err := LoadDeployment(bytes.NewReader(data)); err != nil {
		t.Fatalf("the unmodified artifact: %v", err)
	}
}

// TestInt8LayersHoldOneLayout: an int8 branch holds its weights once. On
// every way to an int8 model — Quantize, LoadDeployment, Deploy,
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
				"Quantize M_R": art.TB.MR, "Quantize M_T": art.TB.MT,
				"LoadDeployment M_R": loaded.TB.MR, "LoadDeployment M_T": loaded.TB.MT,
				"Deploy M_R": dep.Snapshot().MR, "Deploy M_T": dep.Snapshot().MT,
				"DeployInt8 M_R": fresh.Snapshot().MR, "DeployInt8 M_T": fresh.Snapshot().MT,
				"Replicate M_R": rep.Snapshot().MR, "Replicate M_T": rep.Snapshot().MT,
				"ExtractedMR": dep.ExtractedMR(),
			} {
				assertOneLayout(t, what, m, true)
			}
			assertOneLayout(t, "Dequantize", quant.Dequantize(loaded.TB.MT), false)
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
			m := art.TB.MR
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
