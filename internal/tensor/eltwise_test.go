package tensor

import (
	"fmt"
	"math"
	"testing"
)

// specialF32 is what an element-wise kernel can get wrong: NaNs of both
// signs and payloads, a signaling NaN, ±Inf, ±0, denormals and ties.
var specialF32 = []float32{
	float32(math.NaN()), math.Float32frombits(0xFFC00001), math.Float32frombits(0x7F800001), math.Float32frombits(0xFFA00000),
	float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1)),
	1e-45, -1e-45, 1, 1, -1, -2, 0.5, 3,
}

// specialData draws n floats: a third special values, a third +0 (the
// ties of post-ReLU windows), a third normal.
func specialData(rng *RNG, n int) []float32 {
	xs := make([]float32, n)
	for i := range xs {
		switch rng.Intn(3) {
		case 0:
			xs[i] = specialF32[rng.Intn(len(specialF32))]
		case 1:
		default:
			xs[i] = float32(rng.Norm())
		}
	}
	return xs
}

// poolGeometries are VGG18-S's and TinyVGG's pooled planes, then every
// width and height from 1 to 35 over a few planes: both line layouts, every
// tail, odd rows and columns to ignore.
func poolGeometries(fn func(planes, h, w int)) {
	for _, pl := range []struct{ c, hw int }{{16, 16}, {32, 8}, {48, 4}, {64, 2}, {8, 16}, {16, 8}, {32, 4}, {3, 2}} {
		fn(pl.c, pl.hw, pl.hw)
		fn(3*pl.c, pl.hw, pl.hw) // a batch of three
	}
	for h := 1; h <= 35; h++ {
		for w := 1; w <= 35; w++ {
			fn(1+(h+w)%3, h, w)
		}
	}
}

// checkMaxPool2 compares MaxPool2 at the current level, into a dirty
// unaligned destination with a sentinel after it, with maxPool2Scalar.
func checkMaxPool2(t testing.TB, src []float32, planes, h, w int) {
	t.Helper()
	n := planes * (h / 2) * (w / 2)
	want := make([]float32, n)
	maxPool2Scalar(want, src, planes, h, w)
	got := unaligned(make([]float32, n+1), 1)
	for i := range got {
		got[i] = 99
	}
	MaxPool2(got[:n], src, planes, h, w)
	for i, v := range want {
		if math.Float32bits(got[i]) != math.Float32bits(v) {
			t.Fatalf("%v %dx%dx%d: out[%d] = %v [%#x], definition %v [%#x]",
				f32Level, planes, h, w, i, got[i], math.Float32bits(got[i]), v, math.Float32bits(v))
		}
	}
	if got[n] != 99 {
		t.Fatalf("%v %dx%dx%d: wrote past the output", f32Level, planes, h, w)
	}
}

// TestMaxPool2MatchesDefinition holds every level's pool to the definition
// bit for bit on windows full of special values.
func TestMaxPool2MatchesDefinition(t *testing.T) {
	forEachF32Level(t, func(t *testing.T) {
		rng := NewRNG(71)
		poolGeometries(func(planes, h, w int) {
			checkMaxPool2(t, unaligned(specialData(rng, planes*h*w), 3), planes, h, w)
		})
	})
}

// TestAddInPlaceAndReLUIntoMatchDefinition holds the vector add,
// add-then-rectify and rectifier to their Go loops at every length up to
// three full steps and a tail, in place and not: bit for bit, except which
// of two NaN operands a sum keeps (sameF32), which is the hardware's
// operand-order rule and differs between compilations of the Go loop too.
func TestAddInPlaceAndReLUIntoMatchDefinition(t *testing.T) {
	forEachF32Level(t, func(t *testing.T) {
		rng := NewRNG(73)
		for n := 0; n <= 3*32+9; n++ {
			a, b := specialData(rng, n), specialData(rng, n)
			sum, rect, relu := make([]float32, n), make([]float32, n), make([]float32, n)
			for i := range a {
				sum[i] = a[i]
				sum[i] += b[i]
				rect[i] = ReLU(sum[i])
				relu[i] = ReLU(a[i])
			}
			add := FromData(append([]float32(nil), a...), n)
			add.AddInPlace(FromData(b, n))
			fused := FromData(append([]float32(nil), a...), n)
			fused.AddReLUInPlace(FromData(b, n))
			into := unaligned(make([]float32, n), 1)
			ReLUInto(into, a)
			inPlace := append([]float32(nil), a...)
			ReLUInto(inPlace, inPlace)
			for name, c := range map[string]struct{ got, want []float32 }{
				"add": {add.data, sum}, "add-relu": {fused.data, rect}, "relu": {into, relu}, "relu in place": {inPlace, relu},
			} {
				for i, v := range c.want {
					if !sameF32(c.got[i], v) {
						t.Fatalf("%s n=%d: [%d] = %v [%#x], definition %v [%#x] (inputs %#x, %#x)", name, n, i,
							c.got[i], math.Float32bits(c.got[i]), v, math.Float32bits(v), math.Float32bits(a[i]), math.Float32bits(b[i]))
					}
				}
			}
		}
	})
}

// BenchmarkMaxPool2 prices the vector and the scalar pool on VGG18-S's four pooled
// stage outputs, one sample of post-ReLU data rotated over 64 inputs (on one
// repeated input the branch predictor learns a branching pool's every
// comparison).
func BenchmarkMaxPool2(b *testing.B) {
	for _, s := range []struct{ c, hw int }{{16, 16}, {32, 8}, {48, 4}, {64, 2}} {
		size := s.c * s.hw * s.hw
		xs := make([]float32, 64*size)
		rng := NewRNG(9)
		for i := range xs {
			xs[i] = ReLU(float32(rng.Norm()))
		}
		dst := make([]float32, size/4)
		for _, l := range []f32Kernel{f32AVX512, f32Scalar} {
			b.Run(fmt.Sprintf("%dx%dx%d/%s", s.c, s.hw, s.hw, poolKernel(l)), func(b *testing.B) {
				ran := withF32Level(l, func() {
					for i := 0; i < b.N; i++ {
						j := i % 64
						MaxPool2(dst, xs[j*size:(j+1)*size], s.c, s.hw, s.hw)
					}
				})
				if !ran {
					b.Skipf("no %v kernel on this CPU", l)
				}
			})
		}
	}
}

// BenchmarkAddInPlace prices the add, the fused add + ReLU of a residual and
// the rectifier at the AVX level and in Go, on a VGG18-S first-stage output
// (16×16×16) and a last-stage one (64×2×2).
func BenchmarkAddInPlace(b *testing.B) {
	for _, n := range []int{16 * 16 * 16, 64 * 2 * 2} {
		rng := NewRNG(10)
		x, y := New(n), New(n)
		rng.FillNormal(x, 0, 1)
		rng.FillNormal(y, 0, 1)
		for _, leg := range []struct {
			l    f32Kernel
			name string
		}{{f32AVX, "avx"}, {f32Scalar, "scalar"}} {
			for _, op := range []struct {
				name string
				run  func()
			}{
				{"add", func() { x.AddInPlace(y) }},
				{"add-relu", func() { x.AddReLUInPlace(y) }},
				{"relu", func() { ReLUInto(x.data, y.data) }},
			} {
				b.Run(fmt.Sprintf("%d/%s/%s", n, op.name, leg.name), func(b *testing.B) {
					ran := withF32Level(leg.l, func() {
						for i := 0; i < b.N; i++ {
							op.run()
						}
					})
					if !ran {
						b.Skipf("no %v kernel on this CPU", leg.l)
					}
				})
			}
		}
	}
}
