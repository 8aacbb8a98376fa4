package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// This file locks the vector forms of the three passes in front of the int8
// GEMM — MaxAbs, QuantizeI8HWC (and the contiguous QuantizeI8), Im2RowI8HWC —
// to their scalar definitions, byte for byte, and both to the channel-major
// reference (checkLoweringI8).

type frontGeom struct{ c, h, w, k, stride, pad int }

func (g frontGeom) String() string {
	return fmt.Sprintf("%dx%dx%d_k%ds%dp%d", g.c, g.h, g.w, g.k, g.stride, g.pad)
}

// zooConvInputs are the inputs of the eight convolutions of one VGG18-S
// branch, the shapes BenchmarkInt8Front and BenchmarkGemmI8Shapes price.
var zooConvInputs = []frontGeom{
	{3, 16, 16, 3, 1, 1}, {16, 16, 16, 3, 1, 1},
	{16, 8, 8, 3, 1, 1}, {32, 8, 8, 3, 1, 1},
	{32, 4, 4, 3, 1, 1}, {48, 4, 4, 3, 1, 1},
	{48, 2, 2, 3, 1, 1}, {64, 2, 2, 3, 1, 1},
}

// frontGeometries is the bit-identity table: the zoo's conv inputs,
// ResNet20-S's stride-2 convolutions, a pointwise convolution (pad 0: the
// plane is the plain HWC image), then pruned channel counts (c%4 != 0, and
// c < 4 with and without the border its spare bytes need) across row widths
// on both sides of the eight-pixel step, with h != w.
var frontGeometries = func() []frontGeom {
	gs := append([]frontGeom{}, zooConvInputs...)
	gs = append(gs,
		frontGeom{16, 16, 16, 3, 2, 1}, frontGeom{32, 8, 8, 3, 2, 1},
		frontGeom{32, 16, 16, 1, 1, 0}, frontGeom{16, 5, 9, 1, 2, 0},
		frontGeom{4, 3, 11, 5, 1, 2}, frontGeom{2, 6, 7, 3, 1, 1}, frontGeom{3, 4, 8, 3, 1, 0},
	)
	for _, c := range []int{1, 3, 5, 13} {
		for _, w := range []int{2, 4, 7, 9, 24} {
			gs = append(gs, frontGeom{c, 3, w, 3, 1, 1})
		}
	}
	return gs
}()

// frontFill is one value set of the table: an image and the scale it is
// quantized at.
type frontFill struct {
	name  string
	src   []float32
	scale float32
}

func frontFills(rng *rand.Rand, n int) []frontFill {
	normal := randF32(rng, n)
	trueScale := QuantScale(MaxAbs(normal))

	// NaN (both signs), ±Inf and -0 at the ends and scattered between, at a
	// finite scale (their own MaxAbs is +Inf: every product then is 0 or NaN)
	// and at that one.
	specials := randF32(rng, n)
	odd := []float32{float32(math.NaN()), math.Float32frombits(0xFFC00001), float32(math.Inf(1)),
		float32(math.Inf(-1)), math.Float32frombits(f32SignBit)}
	for i, v := range odd {
		specials[(i*7)%n] = v
		specials[n-1-(i*5)%n] = v
	}

	// v·inv lands exactly on n+0.5 for every n the clamp admits and a few it
	// does not: 0.25 is a power of two.
	ties := make([]float32, n)
	for i := range ties {
		ties[i] = (float32(i%261-130) + 0.5) * 0.25
	}

	return []frontFill{
		{"normal", normal, trueScale},
		{"clamped", normal, 0.9 * trueScale},
		{"specials", specials, 0.02},
		{"specials_own_scale", specials, QuantScale(MaxAbs(specials))},
		{"ties", ties, 0.25},
		{"zero", make([]float32, n), QuantScale(0)},
	}
}

// frontOut is everything the front passes produce for one image.
type frontOut struct {
	maxAbs         uint32
	flat           []int8 // QuantizeI8
	plane, patches []int8
}

// runFront runs the passes with the dispatch pinned to level l, into buffers
// poisoned with bytes a skipped store would leave behind, and checks the
// plane's border; ok is false when this CPU has no such level.
func runFront(t *testing.T, l i8Kernel, g frontGeom, src []float32, scale float32) (out frontOut, ok bool) {
	t.Helper()
	out.flat = make([]int8, len(src))
	out.plane = make([]int8, I8PlaneLen(g.c, g.h, g.w, g.pad))
	out.patches = make([]int8, Im2ColLen(g.c, g.h, g.w, g.k, g.k, g.stride, g.pad))
	for _, buf := range [][]int8{out.flat, out.plane, out.patches} {
		for i := range buf {
			buf[i] = 0x4D
		}
	}
	ok = withI8Level(l, func() {
		out.maxAbs = math.Float32bits(MaxAbs(src))
		QuantizeI8(src, scale, out.flat)
		QuantizeI8HWC(src, g.c, g.h, g.w, g.pad, scale, out.plane)
		Im2RowI8HWC(out.plane, g.c, g.h, g.w, g.k, g.k, g.stride, g.pad, out.patches)
	})
	if !ok {
		return out, false
	}
	pw := g.w + 2*g.pad
	for y := 0; y < g.h+2*g.pad; y++ {
		for x := 0; x < pw; x++ {
			if y >= g.pad && y < g.h+g.pad && x >= g.pad && x < g.w+g.pad {
				continue
			}
			for ch := 0; ch < g.c; ch++ {
				if v := out.plane[(y*pw+x)*g.c+ch]; v != 0 {
					t.Fatalf("%v at %v: border (%d,%d) channel %d = %d, want 0", g, l, y, x, ch, v)
				}
			}
		}
	}
	return out, true
}

func diffI8(t *testing.T, what string, got, want []int8) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %d, scalar definition gives %d", what, i, got[i], want[i])
		}
	}
}

// TestInt8FrontVectorBitIdenticalToScalar: on every geometry and value set of
// the table the vector passes produce the scalar definitions' bytes — scale
// bits, flat and HWC quantization, zero border, patch rows — and both meet
// the channel-major reference.
func TestInt8FrontVectorBitIdenticalToScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, g := range frontGeometries {
		t.Run(g.String(), func(t *testing.T) {
			for _, f := range frontFills(rng, g.c*g.h*g.w) {
				want, _ := runFront(t, i8Scalar, g, f.src, f.scale)
				withI8Level(i8Scalar, func() { checkLoweringI8(t, f.src, g.c, g.h, g.w, g.k, g.stride, g.pad) })
				got, ok := runFront(t, i8AVX2, g, f.src, f.scale)
				if !ok {
					t.Skip("no vector front passes on this CPU")
				}
				if got.maxAbs != want.maxAbs {
					t.Fatalf("%s: MaxAbs bits %#x, scalar definition gives %#x", f.name, got.maxAbs, want.maxAbs)
				}
				diffI8(t, f.name+": QuantizeI8", got.flat, want.flat)
				diffI8(t, f.name+": plane", got.plane, want.plane)
				diffI8(t, f.name+": patches", got.patches, want.patches)
				withI8Level(i8AVX2, func() { checkLoweringI8(t, f.src, g.c, g.h, g.w, g.k, g.stride, g.pad) })
			}
		})
	}
}

// TestMaxAbsVectorBitIdenticalToScalar walks every length across the 32-, 8-
// and masked-tail steps with the maximum, a NaN, an infinity and a denormal
// visiting every position.
func TestMaxAbsVectorBitIdenticalToScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	nan, negNaN := float32(math.NaN()), math.Float32frombits(0xFFC00001)
	inf := float32(math.Inf(1))
	check := func(what string, xs []float32) {
		t.Helper()
		var scalar, vector float32
		withI8Level(i8Scalar, func() { scalar = MaxAbs(xs) })
		if !withI8Level(i8AVX2, func() { vector = MaxAbs(xs) }) {
			t.Skip("no vector MaxAbs on this CPU")
		}
		if math.Float32bits(vector) != math.Float32bits(scalar) || vector != maxAbsRef(xs) {
			t.Fatalf("%s, len %d: vector %v, scalar %v, reference %v", what, len(xs), vector, scalar, maxAbsRef(xs))
		}
	}
	for n := 0; n <= 70; n++ {
		xs := randF32(rng, n)
		check("normal", xs)
		for i := range xs {
			for name, v := range map[string]float32{"max": -9, "nan": nan, "-nan": negNaN, "inf": inf, "-inf": -inf} {
				old := xs[i]
				xs[i] = v
				check(fmt.Sprintf("%s at %d", name, i), xs)
				xs[i] = old
			}
		}
		for i := range xs {
			xs[i] = math.Float32frombits(uint32(rng.Intn(1 << 23))) // denormals only
		}
		check("denormals", xs)
		for i := range xs {
			xs[i] = nan
		}
		check("only NaN", xs)
	}
}

// FuzzInt8FrontMatchesReference drives the front passes over arbitrary
// geometry and raw float bit patterns — NaN payloads, infinities, denormals —
// on the vector and the scalar leg: the legs must agree byte for byte and
// each must meet the channel-major reference.
func FuzzInt8FrontMatchesReference(f *testing.F) {
	f.Add(uint8(16), uint8(16), uint8(16), uint8(3), uint8(1), uint8(1), []byte{0x00, 0x00, 0x80, 0x3f, 0xdb, 0x0f, 0x49, 0xc0})
	f.Add(uint8(3), uint8(4), uint8(9), uint8(3), uint8(2), uint8(1), []byte{0x00, 0x00, 0xc0, 0x7f, 0x00, 0x00, 0x80, 0xff, 0x01})
	f.Add(uint8(13), uint8(2), uint8(7), uint8(5), uint8(1), uint8(2), []byte{0xff, 0xff, 0x7f, 0x00, 0x00, 0x00, 0x00, 0x80})
	f.Add(uint8(2), uint8(5), uint8(3), uint8(1), uint8(1), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, c8, h8, w8, k8, s8, p8 uint8, raw []byte) {
		g := frontGeom{1 + int(c8)%20, 1 + int(h8)%12, 1 + int(w8)%26, 1 + int(k8)%5, 1 + int(s8)%3, int(p8) % 4}
		if g.h+2*g.pad < g.k || g.w+2*g.pad < g.k {
			t.Skip("window larger than the padded image")
		}
		// The bytes repeat across the image (all zeros for no bytes).
		src := make([]float32, g.c*g.h*g.w)
		for i := range src {
			var bits uint32
			for j := 0; j < 4 && len(raw) > 0; j++ {
				bits |= uint32(raw[(4*i+j)%len(raw)]) << (8 * j)
			}
			src[i] = math.Float32frombits(bits)
		}
		for _, scale := range []float32{QuantScale(MaxAbs(src)), QuantScale(absF32(src[0]))} {
			want, _ := runFront(t, i8Scalar, g, src, scale)
			got, ok := runFront(t, i8AVX2, g, src, scale)
			if ok {
				if got.maxAbs != want.maxAbs {
					t.Fatalf("%v: MaxAbs bits %#x, scalar definition gives %#x", g, got.maxAbs, want.maxAbs)
				}
				diffI8(t, "QuantizeI8", got.flat, want.flat)
				diffI8(t, "plane", got.plane, want.plane)
				diffI8(t, "patches", got.patches, want.patches)
			}
		}
		for _, l := range []i8Kernel{i8AVX2, i8Scalar} {
			withI8Level(l, func() { checkLoweringI8(t, src, g.c, g.h, g.w, g.k, g.stride, g.pad) })
		}
	})
}

// absF32 is |v| with a NaN mapped to 0, so it can stand in for a MaxAbs.
func absF32(v float32) float32 {
	if b := absBits(v); b <= f32InfBits {
		return math.Float32frombits(b)
	}
	return 0
}

var benchSinkF32 float32

// BenchmarkInt8Front is the shape-matched rung of the passes in front of the
// int8 GEMM: per conv input of one VGG18-S branch, MaxAbs, QuantizeI8HWC and
// Im2RowI8HWC timed alone on the vector and on the scalar leg. The input
// rotates over 64 samples: one repeated image flatters anything with a
// compare in it. QuantizeI8HWC's comment holds the table.
func BenchmarkInt8Front(b *testing.B) {
	const samples = 64
	for _, g := range zooConvInputs {
		rng := rand.New(rand.NewSource(6))
		n, planeLen := g.c*g.h*g.w, I8PlaneLen(g.c, g.h, g.w, g.pad)
		src := randF32(rng, samples*n)
		scales := make([]float32, samples)
		planes := make([]int8, samples*planeLen)
		for i := range scales {
			scales[i] = QuantScale(MaxAbs(src[i*n : (i+1)*n]))
			QuantizeI8HWC(src[i*n:(i+1)*n], g.c, g.h, g.w, g.pad, scales[i], planes[i*planeLen:(i+1)*planeLen])
		}
		plane := make([]int8, planeLen)
		patches := make([]int8, Im2ColLen(g.c, g.h, g.w, g.k, g.k, g.stride, g.pad))
		for _, pass := range []struct {
			name string
			run  func(i int)
		}{
			{"maxabs", func(i int) { benchSinkF32 = MaxAbs(src[i*n : (i+1)*n]) }},
			{"quant", func(i int) { QuantizeI8HWC(src[i*n:(i+1)*n], g.c, g.h, g.w, g.pad, scales[i], plane) }},
			{"lower", func(i int) {
				Im2RowI8HWC(planes[i*planeLen:(i+1)*planeLen], g.c, g.h, g.w, g.k, g.k, g.stride, g.pad, patches)
			}},
		} {
			for _, leg := range []struct {
				name  string
				level i8Kernel
			}{{"vector", i8AVX2}, {"scalar", i8Scalar}} {
				b.Run(fmt.Sprintf("%dx%dx%d/%s/%s", g.c, g.h, g.w, pass.name, leg.name), func(b *testing.B) {
					ran := withI8Level(leg.level, func() {
						for i := 0; i < b.N; i++ {
							pass.run(i % samples)
						}
					})
					if !ran {
						b.Skipf("no %s front passes on this CPU", leg.name)
					}
				})
			}
		}
	}
}
