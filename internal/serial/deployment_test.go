package serial

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"testing"

	"tbnet/internal/core"
	"tbnet/internal/tee"
	"tbnet/internal/tensor"
	"tbnet/internal/zoo"
)

// finalizedTwoBranch builds a deployable finalized model without the
// training pipeline: random weights exercise the format as well as trained
// ones, and a reversed channel permutation on every stage exercises the
// alignment gather path the rollback finalization produces.
func finalizedTwoBranch(t testing.TB, seed uint64, arch string) *core.TwoBranch {
	t.Helper()
	rng := tensor.NewRNG(seed)
	var victim *zoo.Model
	classes := 2 + int(seed%6)
	switch arch {
	case "vgg":
		victim = zoo.BuildVGG(zoo.TinyVGGConfig(classes), rng)
	case "resnet":
		victim = zoo.BuildResNet(zoo.TinyResNetConfig(classes), true, rng)
	case "mobilenet":
		victim = zoo.BuildMobileNet(zoo.MobileNetSConfig(classes), rng)
	default:
		t.Fatalf("unknown arch %q", arch)
	}
	tb := core.NewTwoBranch(victim, seed+1)
	for i, s := range tb.MT.Stages {
		c := s.OutChannels()
		perm := make([]int, c)
		for j := range perm {
			perm[j] = c - 1 - j
		}
		tb.Align[i] = perm
	}
	tb.Finalized = true
	return tb
}

func artifactBytes(t testing.TB, art *Artifact) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveDeployment(&buf, art); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertModelsBitIdentical compares every parameter tensor bitwise.
func assertModelsBitIdentical(t testing.TB, what string, a, b *zoo.Model) {
	t.Helper()
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		t.Fatalf("%s: %d vs %d params", what, len(pa), len(pb))
	}
	for i := range pa {
		da, db := pa[i].Value.Data(), pb[i].Value.Data()
		if len(da) != len(db) {
			t.Fatalf("%s: param %d size %d vs %d", what, i, len(da), len(db))
		}
		for j := range da {
			if da[j] != db[j] {
				t.Fatalf("%s: param %d differs at %d: %v vs %v", what, i, j, da[j], db[j])
			}
		}
	}
}

// TestDeploymentRoundTripBitIdenticalOnEveryDevice is the persistence
// acceptance test: a saved-then-loaded deployment must produce bit-identical
// InferInto results to the original on every registered hardware backend.
func TestDeploymentRoundTripBitIdenticalOnEveryDevice(t *testing.T) {
	tb := finalizedTwoBranch(t, 1, "vgg")
	shape := []int{2, 3, 16, 16}
	data := artifactBytes(t, &Artifact{TB: tb, Device: "rpi3", SampleShape: shape})
	art, err := LoadDeployment(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if art.Device != "rpi3" || len(art.SampleShape) != 4 || art.SampleShape[0] != 2 {
		t.Fatalf("metadata mismatch: device %q shape %v", art.Device, art.SampleShape)
	}
	assertModelsBitIdentical(t, "MR", tb.MR, art.TB.MR)
	assertModelsBitIdentical(t, "MT", tb.MT, art.TB.MT)

	for _, device := range tee.Devices() {
		device := device
		t.Run(device.Name(), func(t *testing.T) {
			orig, err := core.Deploy(tb.Clone(), device, shape)
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := core.Deploy(art.TB.Clone(), device, shape)
			if err != nil {
				t.Fatal(err)
			}
			labels := make([]int, shape[0])
			want := make([]int, shape[0])
			for trial := 0; trial < 8; trial++ {
				x := tensor.New(shape...)
				tensor.NewRNG(uint64(100+trial)).FillNormal(x, 0, 1)
				wl, err := orig.InferInto(x, want)
				if err != nil {
					t.Fatal(err)
				}
				gl, err := loaded.InferInto(x, labels)
				if err != nil {
					t.Fatal(err)
				}
				for i := range wl {
					if wl[i] != gl[i] {
						t.Fatalf("trial %d label[%d]: loaded %d vs original %d on %s",
							trial, i, gl[i], wl[i], device.Name())
					}
				}
			}
		})
	}
}

// TestDeploymentRoundTripPropertyRandomArchitectures: across random
// architectures, class counts, and weights, Save→Load is weight-exact and
// inference-exact.
func TestDeploymentRoundTripPropertyRandomArchitectures(t *testing.T) {
	archs := []string{"vgg", "resnet", "mobilenet"}
	for seed := uint64(0); seed < 6; seed++ {
		arch := archs[seed%uint64(len(archs))]
		t.Run(fmt.Sprintf("%s-seed%d", arch, seed), func(t *testing.T) {
			tb := finalizedTwoBranch(t, seed, arch)
			shape := []int{1 + int(seed%3), 3, 16, 16}
			data := artifactBytes(t, &Artifact{TB: tb, Device: "rpi3", SampleShape: shape})
			art, err := LoadDeployment(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			assertModelsBitIdentical(t, "MR", tb.MR, art.TB.MR)
			assertModelsBitIdentical(t, "MT", tb.MT, art.TB.MT)
			orig, err := core.Deploy(tb.Clone(), tee.RaspberryPi3(), shape)
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := core.Deploy(art.TB.Clone(), tee.RaspberryPi3(), shape)
			if err != nil {
				t.Fatal(err)
			}
			x := tensor.New(shape...)
			tensor.NewRNG(seed+77).FillNormal(x, 0, 1)
			want, err := orig.Infer(x)
			if err != nil {
				t.Fatal(err)
			}
			got, err := loaded.Infer(x)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("label[%d] = %d, want %d", i, got[i], want[i])
				}
			}
		})
	}
}

// TestLoadDeploymentTruncatedNeverPanics: every proper prefix of a valid
// artifact must fail with an error, not a panic.
func TestLoadDeploymentTruncatedNeverPanics(t *testing.T) {
	tb := finalizedTwoBranch(t, 3, "vgg")
	data := artifactBytes(t, &Artifact{TB: tb, Device: "rpi3", SampleShape: []int{1, 3, 16, 16}})
	// Every short prefix plus a sweep of longer ones keeps the test fast
	// while covering header, metadata, weights, and trailer truncations.
	for cut := 0; cut < len(data); cut += 1 + cut/16 {
		cut := cut
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("LoadDeployment panicked on %d-byte prefix: %v", cut, r)
				}
			}()
			if _, err := LoadDeployment(bytes.NewReader(data[:cut])); err == nil {
				t.Fatalf("truncation to %d of %d bytes loaded successfully", cut, len(data))
			}
		}()
	}
}

// TestLoadDeploymentCorruptionNeverPanics: flipping any byte of a valid
// artifact must produce a wrapped error (usually the checksum), never a
// panic and never a silently-wrong model.
func TestLoadDeploymentCorruptionNeverPanics(t *testing.T) {
	tb := finalizedTwoBranch(t, 4, "vgg")
	data := artifactBytes(t, &Artifact{TB: tb, Device: "rpi3", SampleShape: []int{1, 3, 16, 16}})
	for pos := 0; pos < len(data); pos += 1 + pos/64 {
		pos := pos
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("LoadDeployment panicked on flip at %d: %v", pos, r)
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

// TestChecksumCatchesWeightCorruption: a bit flip deep in the weight payload
// leaves the structure parseable — only the v2 checksum can catch it, and it
// must, with ErrBadFormat.
func TestChecksumCatchesWeightCorruption(t *testing.T) {
	tb := finalizedTwoBranch(t, 5, "vgg")
	data := artifactBytes(t, &Artifact{TB: tb, Device: "rpi3", SampleShape: []int{1, 3, 16, 16}})
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0x01 // a single bit, mid-payload
	_, err := LoadDeployment(bytes.NewReader(bad))
	if err == nil {
		t.Fatal("mid-payload bit flip loaded successfully")
	}
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("err = %v, want ErrBadFormat", err)
	}
}

// TestLoadDeploymentRejectsAbsurdShapeProduct: each sample-shape dim can be
// individually legal while the product requests a petabyte working set — a
// checksum-valid artifact like that must fail at load, before any sizing.
func TestLoadDeploymentRejectsAbsurdShapeProduct(t *testing.T) {
	var buf bytes.Buffer
	w := newWriter(&buf)
	w.u32(magicDeploy)
	w.u32(version)
	w.beginChecksum()
	w.str("rpi3")
	w.i32(4)
	for i := 0; i < 4; i++ {
		w.i32(1 << 16) // every dim at the per-dim cap: product is 2^64 elements
	}
	w.endChecksum()
	if err := w.flush(); err != nil {
		t.Fatal(err)
	}
	_, err := LoadDeployment(bytes.NewReader(buf.Bytes()))
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("err = %v, want ErrBadFormat", err)
	}
}

// TestUnsupportedVersionRejected: a future version number, and version 1
// (no deployment artifact was ever written at it), fail with ErrBadFormat
// instead of misparsing.
func TestUnsupportedVersionRejected(t *testing.T) {
	for _, v := range []uint32{99, 1} {
		var buf bytes.Buffer
		w := newWriter(&buf)
		w.u32(magicDeploy)
		w.u32(v)
		if err := w.flush(); err != nil {
			t.Fatal(err)
		}
		_, err := LoadDeployment(bytes.NewReader(buf.Bytes()))
		if !errors.Is(err, ErrBadFormat) || !strings.Contains(err.Error(), "unsupported version") {
			t.Fatalf("version %d: err = %v, want ErrBadFormat: unsupported version", v, err)
		}
	}
}

// TestSaveDeploymentRejectsBadArtifacts: unfinalized models and malformed
// shapes are refused at save time.
func TestSaveDeploymentRejectsBadArtifacts(t *testing.T) {
	tb := finalizedTwoBranch(t, 7, "vgg")
	unfinalized := tb.Clone()
	unfinalized.Finalized = false
	var buf bytes.Buffer
	cases := []*Artifact{
		nil,
		{TB: nil},
		{TB: unfinalized, Device: "rpi3", SampleShape: []int{1, 3, 16, 16}},
		{TB: tb, Device: "rpi3", SampleShape: []int{3, 16, 16}},
	}
	for i, art := range cases {
		if err := SaveDeployment(&buf, art); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("case %d: err = %v, want ErrBadFormat", i, err)
		}
	}
}

// FuzzLoadDeployment feeds arbitrary bytes to the deployment loader, seeded
// with an artifact of every stage kind at both precisions. Each input is
// tried as given, so checksum rejection stays fuzzed, and with its SHA-256
// trailer re-sealed over the mutated payload, so mutations reach the stage
// parser. Whatever loads is deployed: loading and deploying may fail, but
// neither may panic.
func FuzzLoadDeployment(f *testing.F) {
	shape := []int{1, 3, 16, 16}
	tb := finalizedTwoBranch(f, 8, "vgg")
	valid := artifactBytes(f, &Artifact{TB: tb, Device: "rpi3", SampleShape: shape})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:8])
	f.Add([]byte{})
	f.Add([]byte("TBND garbage"))
	for _, arch := range []string{"mobilenet", "resnet"} {
		f.Add(artifactBytes(f, &Artifact{TB: finalizedTwoBranch(f, 9, arch), Device: "rpi3", SampleShape: shape}))
	}
	for _, arch := range []string{"vgg", "mobilenet", "resnet"} {
		art, _ := int8Artifact(f, 10, arch, shape)
		f.Add(artifactBytes(f, art))
	}
	f.Fuzz(fuzzLoadAndDeploy)
}

// fuzzLoadAndDeploy is the body of the deployment fuzz targets: data as
// given, then re-sealed; anything that loads must deploy or fail cleanly.
func fuzzLoadAndDeploy(t *testing.T, data []byte) {
	for _, in := range [][]byte{data, resealed(data)} {
		art, err := LoadDeployment(bytes.NewReader(in))
		if err != nil {
			continue
		}
		if art == nil {
			t.Fatal("nil artifact without error")
		}
		_, _ = art.Deploy(nil) // an error is a clean rejection; a panic fails the target
	}
}

// resealed returns a copy of data whose trailing 32 bytes are the SHA-256
// of everything between the 8-byte header and them — the trailer a writer
// would have produced for that payload.
func resealed(data []byte) []byte {
	if len(data) < 8+sha256.Size {
		return data
	}
	out := append([]byte(nil), data...)
	sum := sha256.Sum256(out[8 : len(out)-sha256.Size])
	copy(out[len(out)-sha256.Size:], sum[:])
	return out
}

// FuzzLoadModel feeds arbitrary bytes to the staged-model parser every
// deployment branch goes through, with no checksum in front of it, so each
// mutation reaches a stage or head bound.
func FuzzLoadModel(f *testing.F) {
	var buf bytes.Buffer
	w := newWriter(&buf)
	saveModelBody(w, zoo.BuildVGG(zoo.TinyVGGConfig(4), tensor.NewRNG(9)), false)
	if err := w.flush(); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := newReader(bytes.NewReader(data))
		if m := loadModelBody(r, false); m == nil && r.err == nil {
			t.Fatal("nil model without error")
		}
	})
}
