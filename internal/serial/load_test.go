package serial

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"runtime/metrics"
	"testing"

	"tbnet/internal/core"
	"tbnet/internal/nn"
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
// tensor, no gradient accumulator. The int8 leg locks three figures of the
// VGG18-S artifact at their measured values, allowing 1% for the allocator:
// what the load allocates, what Deploy allocates, and the heap the
// deployment holds. An armed layer holds no float32 weights, and Deploy
// serves the loaded armed models without copying them, so a 247 131-byte
// artifact holds about 0.53 MB (2.49 MB while both held zeroed float32
// copies). Deploy's two activation arenas hold a scratch slot per kernel
// worker, so their bytes grow with GOMAXPROCS; the Deploy and held figures
// are locked net of them, and hold at any core count.
func TestLoadDeploymentAllocBytes(t *testing.T) {
	f32, i8, paramBytes := vgg18Artifacts(t)
	t.Run("f32", func(t *testing.T) {
		const loads = 8
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < loads; i++ {
			if _, err := LoadDeployment(bytes.NewReader(f32)); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perLoad := float64(after.TotalAlloc-before.TotalAlloc) / loads
		if ratio := perLoad / float64(paramBytes); ratio > 1.5 {
			t.Fatalf("a load allocates %.0f bytes, %.2f× the %d parameter bytes (want ≤ 1.5×)",
				perLoad, ratio, paramBytes)
		}
	})
	t.Run("int8", func(t *testing.T) {
		const loadBytes, deployBytes, liveBytes = 543_552, 9_472, 532_656
		arenas := arenaBytes()
		// Each figure is the least of three rounds: an object the runtime
		// or another goroutine happens to hold across a collection only
		// moves one round's.
		load, deploy, live := int64(math.MaxInt64), int64(math.MaxInt64), int64(math.MaxInt64)
		for range 3 {
			l, d, v := int8DeployBytes(t, i8)
			load, deploy, live = min(load, l), min(deploy, d-arenas), min(live, v-arenas)
		}
		for _, c := range []struct {
			what      string
			got, want int64
		}{
			{"the load allocates", load, loadBytes},
			{"Deploy allocates, beside its arenas,", deploy, deployBytes},
			{"the deployment holds, beside its arenas,", live, liveBytes},
		} {
			t.Logf("%s %d bytes (arenas: %d bytes for %d workers)", c.what, c.got, arenas, tensor.Workers())
			if float64(c.got) > 1.01*float64(c.want) {
				t.Errorf("%s %d bytes, over the %d measured (+1%%)", c.what, c.got, c.want)
			}
		}
	})
}

// int8DeployBytes loads the int8 artifact i8 and deploys it, and returns
// what the load allocates, what Deploy allocates, and the heap the
// deployment holds: what a collection frees once it is dropped. Both
// collections come after the work, so whatever else the heap holds at the
// time — a worker's last job, an earlier test's leftovers — is in both.
func int8DeployBytes(t *testing.T, i8 []byte) (load, deploy, live int64) {
	t.Helper()
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	art, err := LoadDeployment(bytes.NewReader(i8))
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	dep, err := art.Deploy(nil)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m2)
	live = liveHeap()
	runtime.KeepAlive(dep)
	live -= liveHeap()
	return int64(m1.TotalAlloc - m0.TotalAlloc), int64(m2.TotalAlloc - m1.TotalAlloc), live
}

// liveHeap collects and returns the bytes of the heap objects the
// collection marked live. MemStats.HeapAlloc would also count the unused
// slots of the spans each P caches, which grow with GOMAXPROCS.
func liveHeap() int64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// arenaSink keeps arenaBytes' arenas on the heap, where Deploy's live.
var arenaSink [2]*nn.Arena

// arenaBytes returns what Deploy's two empty activation arenas allocate:
// a map and one scratch slot per kernel worker (tensor.Workers) each.
func arenaBytes() int64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	arenaSink = [2]*nn.Arena{nn.NewArena(), nn.NewArena()}
	runtime.ReadMemStats(&after)
	arenaSink = [2]*nn.Arena{}
	return int64(after.TotalAlloc - before.TotalAlloc)
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

// unbackedConvArtifact is a hand-built artifact whose one stage declares a
// 4096×4096×2×2 convolution — 256 MiB of float32 weights — and then ends in
// a (wrong) trailer. The 129-byte f32 form stops after the weight count: no
// weight follows. The 125-byte int8 form elides the weights, so the stage's
// batch norm reads its width from the trailer.
func unbackedConvArtifact(quantized bool) []byte {
	var b []byte
	u32 := func(vs ...uint32) {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
	}
	str := func(s string) { u32(uint32(len(s))); b = append(b, s...) }
	if quantized {
		u32(magicDeploy, deployVersion)
	} else {
		u32(magicDeploy, version)
	}
	str("rpi3")
	u32(4, 1, 3, 16, 16) // sample shape rank and dims
	if quantized {
		b = append(b, precByteInt8)
	} else {
		b = append(b, 1) // finalized
	}
	str("m")
	str("vgg")
	u32(3, 10, 1) // input channels, classes, one stage
	b = append(b, stageConvBlock)
	str("s")
	u32(0)                   // no pool
	b = append(b, 0)         // not width-fixed
	u32(4096, 4096, 2, 1, 0) // inC, outC, k, stride, pad
	b = append(b, 0)         // no bias
	if !quantized {
		u32(4096 * 4096 * 2 * 2) // the weight count; no weight follows
	}
	return append(b, make([]byte, sha256.Size)...)
}

// TestLoadDeploymentAllocatesOnlyWhatBytesFill: a header that declares a
// tensor the input cannot hold fails with ErrBadFormat before the tensor is
// allocated.
func TestLoadDeploymentAllocatesOnlyWhatBytesFill(t *testing.T) {
	assertLoadAllocatesUnder1MiB(t, unbackedConvArtifact(false))
}

// TestLoadDeploymentInt8AllocatesOnlyWhatBytesFill: the weights an int8
// artifact elides are never allocated, so its loader is bounded by the
// bytes too.
func TestLoadDeploymentInt8AllocatesOnlyWhatBytesFill(t *testing.T) {
	assertLoadAllocatesUnder1MiB(t, unbackedConvArtifact(true))
}

// assertLoadAllocatesUnder1MiB requires data to fail to load with
// ErrBadFormat after the loader allocated less than 1 MiB.
func assertLoadAllocatesUnder1MiB(t *testing.T, data []byte) {
	t.Helper()
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
