package serial

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"tbnet/internal/core"
	"tbnet/internal/quant"
	"tbnet/internal/tensor"
	"tbnet/internal/zoo"
)

// vgg18Artifacts returns the f32 and int8 deployment artifacts of a VGG18-S
// two-branch model — the model the paper-setting benchmark workloads load —
// and the float32 parameter bytes of its two branches.
func vgg18Artifacts(t testing.TB) (f32, i8 []byte, paramBytes int64) {
	t.Helper()
	tb := core.NewTwoBranch(zoo.BuildVGG(zoo.VGG18Config(10), tensor.NewRNG(1)), 2)
	tb.Finalized = true
	shape := []int{1, 3, 16, 16}
	f32 = artifactBytes(t, &Artifact{TB: tb, Device: "rpi3", SampleShape: shape})
	i8 = artifactBytes(t, &Artifact{
		Precision: precInt8, QMR: quant.Quantize(tb.MR), QMT: quant.Quantize(tb.MT), Align: tb.Align,
		Device: "rpi3", SampleShape: shape,
	})
	for _, m := range []*zoo.Model{tb.MR, tb.MT} {
		for _, p := range m.Params() {
			paramBytes += 4 * int64(p.Value.Size())
		}
	}
	return f32, i8, paramBytes
}

// TestLoadDeploymentAllocBytes: a load allocates what the artifact holds and
// little more — no layer built only to be replaced, no decode buffer per
// tensor, no gradient accumulator.
func TestLoadDeploymentAllocBytes(t *testing.T) {
	data, _, paramBytes := vgg18Artifacts(t)
	const loads = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < loads; i++ {
		if _, err := LoadDeployment(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perLoad := float64(after.TotalAlloc-before.TotalAlloc) / loads
	if ratio := perLoad / float64(paramBytes); ratio > 1.5 {
		t.Fatalf("a load allocates %.0f bytes, %.2f× the %d parameter bytes (want ≤ 1.5×)",
			perLoad, ratio, paramBytes)
	}
}

// TestReplicateAllocBytes: a replica is its scratch, not a copy — one
// single-sample ReplicateOn of either VGG18-S artifact allocates at most a
// tenth of the model's parameter bytes, because it shares the deployed
// branches.
func TestReplicateAllocBytes(t *testing.T) {
	f32, i8, paramBytes := vgg18Artifacts(t)
	for _, leg := range []struct {
		name string
		data []byte
	}{{"f32", f32}, {"int8", i8}} {
		t.Run(leg.name, func(t *testing.T) {
			art, err := LoadDeployment(bytes.NewReader(leg.data))
			if err != nil {
				t.Fatal(err)
			}
			dep, err := art.Deploy(nil)
			if err != nil {
				t.Fatal(err)
			}
			const replicas = 8
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < replicas; i++ {
				if _, err := dep.ReplicateOn(dep.Device, 1, nil); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			perReplica := float64(after.TotalAlloc-before.TotalAlloc) / replicas
			if ratio := perReplica / float64(paramBytes); ratio > 0.10 {
				t.Fatalf("a replica allocates %.0f bytes, %.1f%% of the %d parameter bytes (want ≤ 10%%)",
					perReplica, 100*ratio, paramBytes)
			}
		})
	}
}

// unbackedConvArtifact is a 129-byte f32 artifact whose one stage declares a
// 4096×4096×2×2 convolution — 256 MiB of weights — and then ends: no
// weights, only a (wrong) trailer.
func unbackedConvArtifact() []byte {
	var b []byte
	u32 := func(vs ...uint32) {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
	}
	str := func(s string) { u32(uint32(len(s))); b = append(b, s...) }
	u32(magicDeploy, version)
	str("rpi3")
	u32(4, 1, 3, 16, 16) // sample shape rank and dims
	b = append(b, 1)     // finalized
	str("m")
	str("vgg")
	u32(3, 10, 1) // input channels, classes, one stage
	b = append(b, stageConvBlock)
	str("s")
	u32(0)                   // no pool
	b = append(b, 0)         // not width-fixed
	u32(4096, 4096, 2, 1, 0) // inC, outC, k, stride, pad
	b = append(b, 0)         // no bias
	u32(4096 * 4096 * 2 * 2) // the weight count; no weight follows
	return append(b, make([]byte, sha256.Size)...)
}

// TestLoadDeploymentAllocatesOnlyWhatBytesFill: a header that declares a
// tensor the input cannot hold fails with ErrBadFormat before the tensor is
// allocated.
func TestLoadDeploymentAllocatesOnlyWhatBytesFill(t *testing.T) {
	data := unbackedConvArtifact()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := LoadDeployment(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("err = %v, want ErrBadFormat", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("a %d-byte artifact made the loader allocate %d bytes (want < 1 MiB)", len(data), alloc)
	}
}

// TestLoadDeploymentRejectsBadGeometry: a checksum-valid artifact whose
// geometry no model can have fails at load with ErrBadFormat, instead of
// loading and then panicking in Deploy.
func TestLoadDeploymentRejectsBadGeometry(t *testing.T) {
	firstDW := func(m *zoo.Model) *zoo.DWBlock {
		for _, s := range m.Stages {
			if b, ok := s.(*zoo.DWBlock); ok {
				return b
			}
		}
		t.Fatal("no depthwise stage")
		return nil
	}
	cases := map[string]func(tb *core.TwoBranch){
		"depthwise stride 0":  func(tb *core.TwoBranch) { firstDW(tb.MT).DW.Stride = 0 },
		"depthwise pad -1":    func(tb *core.TwoBranch) { firstDW(tb.MR).DW.Pad = -1 },
		"depthwise stride 65": func(tb *core.TwoBranch) { firstDW(tb.MR).DW.Stride = 65 },
		"no stages": func(tb *core.TwoBranch) {
			tb.MR.Stages, tb.MT.Stages, tb.Align = nil, nil, nil
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			tb := finalizedTwoBranch(t, 11, "mobilenet")
			corrupt(tb)
			data := artifactBytes(t, &Artifact{TB: tb, Device: "rpi3", SampleShape: []int{1, 3, 16, 16}})
			if _, err := LoadDeployment(bytes.NewReader(data)); !errors.Is(err, ErrBadFormat) {
				t.Fatalf("err = %v, want ErrBadFormat", err)
			}
		})
	}
}

// BenchmarkLoadDeployment is the parse step of the registry.load_us rung —
// a VGG18-S artifact decoded into a deployable model — without the file
// read, the manifest hash check and Deploy that the rung adds.
func BenchmarkLoadDeployment(b *testing.B) {
	f32, i8, _ := vgg18Artifacts(b)
	for _, leg := range []struct {
		name string
		data []byte
	}{{"f32", f32}, {"int8", i8}} {
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(leg.data)))
			for i := 0; i < b.N; i++ {
				if _, err := LoadDeployment(bytes.NewReader(leg.data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
