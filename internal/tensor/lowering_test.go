package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// This file locks the run-copy lowerings and the branch-free quantization
// kernels to the scalar forms they replaced. The old forms live on here (and
// in the exported channel-major Im2RowI8) as the references.

// im2ColRef is the element-by-element Im2Col the run-copy version replaced:
// one bounds test per output element.
func im2ColRef(src []float32, c, h, w, kh, kw, stride, pad int, dst []float32) {
	oh := (h+2*pad-kh)/stride + 1
	ow := (w+2*pad-kw)/stride + 1
	di := 0
	for ch := 0; ch < c; ch++ {
		plane := src[ch*h*w : (ch+1)*h*w]
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				for oy := 0; oy < oh; oy++ {
					iy := oy*stride + ky - pad
					for ox := 0; ox < ow; ox++ {
						ix := ox*stride + kx - pad
						if iy < 0 || iy >= h || ix < 0 || ix >= w {
							dst[di] = 0
						} else {
							dst[di] = plane[iy*w+ix]
						}
						di++
					}
				}
			}
		}
	}
}

// maxAbsRef and quantizeI8Ref are the branchy scalar forms MaxAbs and
// QuantizeI8 had before they went branch-free.
func maxAbsRef(xs []float32) float32 {
	var m float32
	for _, v := range xs {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

func quantizeI8Ref(xs []float32, scale float32, dst []int8) {
	inv := 1 / scale
	for i, v := range xs {
		q := v * inv
		switch {
		case q > 127:
			q = 127
		case q < -127:
			q = -127
		}
		if q >= 0 {
			dst[i] = int8(q + 0.5)
		} else {
			dst[i] = int8(q - 0.5)
		}
	}
}

func randF32(rng *rand.Rand, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(rng.NormFloat64())
	}
	return out
}

// checkIm2Col compares Im2Col with im2ColRef bit for bit on one geometry,
// into a destination poisoned with NaNs so an element the fast path forgets
// to write cannot pass as a zero.
func checkIm2Col(t *testing.T, src []float32, c, h, w, k, stride, pad int) {
	t.Helper()
	n := Im2ColLen(c, h, w, k, k, stride, pad)
	want, got := make([]float32, n), make([]float32, n)
	for i := range got {
		got[i] = float32(math.NaN())
	}
	im2ColRef(src, c, h, w, k, k, stride, pad, want)
	oh, ow := Im2Col(src, c, h, w, k, k, stride, pad, got)
	if oh != ConvOutDim(h, k, stride, pad) || ow != ConvOutDim(w, k, stride, pad) {
		t.Fatalf("c%d %dx%d k%d s%d p%d: out dims %dx%d", c, h, w, k, stride, pad, oh, ow)
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("c%d %dx%d k%d s%d p%d: cols[%d] = %v, want %v", c, h, w, k, stride, pad, i, got[i], want[i])
		}
	}
}

// checkLoweringI8 compares the HWC int8 front end (QuantizeI8HWC +
// Im2RowI8HWC) with the channel-major reference (QuantizeI8 + Im2RowI8) on
// one geometry: the same quantized value at every (patch, ky, kx, channel),
// the HWC patch merely ordered channel-last. The plane and the destination
// are poisoned, the plane with a value a stale border would pass on.
func checkLoweringI8(t *testing.T, src []float32, c, h, w, k, stride, pad int) {
	t.Helper()
	scale := QuantScale(MaxAbs(src))
	chw, hwc := make([]int8, len(src)), make([]int8, I8PlaneLen(c, h, w, pad))
	for i := range hwc {
		hwc[i] = 0x4D
	}
	QuantizeI8(src, scale, chw)
	QuantizeI8HWC(src, c, h, w, pad, scale, hwc)
	n := Im2ColLen(c, h, w, k, k, stride, pad)
	want, got := make([]int8, n), make([]int8, n)
	for i := range got {
		got[i] = -128 // never a quantized value
	}
	oh, ow := Im2RowI8(chw, c, h, w, k, k, stride, pad, want)
	goh, gow := Im2RowI8HWC(hwc, c, h, w, k, k, stride, pad, got)
	if goh != oh || gow != ow {
		t.Fatalf("c%d %dx%d k%d s%d p%d: out dims %dx%d, want %dx%d", c, h, w, k, stride, pad, goh, gow, oh, ow)
	}
	patch, kk := c*k*k, k*k
	for p := 0; p < oh*ow; p++ {
		for tap := 0; tap < kk; tap++ {
			for ch := 0; ch < c; ch++ {
				g, r := got[p*patch+tap*c+ch], want[p*patch+ch*kk+tap]
				if g != r {
					t.Fatalf("c%d %dx%d k%d s%d p%d: patch %d tap %d ch %d = %d, want %d",
						c, h, w, k, stride, pad, p, tap, ch, g, r)
				}
			}
		}
	}
}

// loweringGeometries calls fn on every geometry of the equivalence sweep:
// k ∈ {1,3,5} × stride ∈ {1,2} × pad ∈ {0,1,2} × C ∈ {1,3,16} over images
// with H ≠ W, including ones narrower or shorter than the kernel (reachable
// only through padding).
func loweringGeometries(fn func(c, h, w, k, stride, pad int)) {
	for _, hw := range [][2]int{{7, 6}, {5, 9}, {2, 8}, {8, 1}, {1, 3}} {
		for _, k := range []int{1, 3, 5} {
			for _, stride := range []int{1, 2} {
				for _, pad := range []int{0, 1, 2} {
					h, w := hw[0], hw[1]
					if h+2*pad < k || w+2*pad < k {
						continue
					}
					for _, c := range []int{1, 3, 16} {
						fn(c, h, w, k, stride, pad)
					}
				}
			}
		}
	}
}

func TestIm2ColMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	loweringGeometries(func(c, h, w, k, stride, pad int) {
		checkIm2Col(t, randF32(rng, c*h*w), c, h, w, k, stride, pad)
	})
}

func TestIm2RowI8HWCMatchesChannelMajorReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	loweringGeometries(func(c, h, w, k, stride, pad int) {
		checkLoweringI8(t, randF32(rng, c*h*w), c, h, w, k, stride, pad)
	})
}

// FuzzLoweringMatchesReference drives both precisions' lowerings over
// arbitrary geometry against their references.
func FuzzLoweringMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(16), uint8(16), uint8(3), uint8(1), uint8(1))
	f.Add(int64(2), uint8(3), uint8(2), uint8(9), uint8(5), uint8(2), uint8(2))
	f.Add(int64(3), uint8(32), uint8(4), uint8(4), uint8(1), uint8(1), uint8(0))
	f.Add(int64(4), uint8(1), uint8(1), uint8(1), uint8(4), uint8(3), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, c8, h8, w8, k8, s8, p8 uint8) {
		c, h, w := 1+int(c8)%20, 1+int(h8)%12, 1+int(w8)%12
		k, stride, pad := 1+int(k8)%5, 1+int(s8)%3, int(p8)%4
		if h+2*pad < k || w+2*pad < k {
			t.Skip("window larger than the padded image")
		}
		src := randF32(rand.New(rand.NewSource(seed)), c*h*w)
		checkIm2Col(t, src, c, h, w, k, stride, pad)
		checkLoweringI8(t, src, c, h, w, k, stride, pad)
	})
}

// TestIm2RowI8HWCGemmMatchesChannelMajor is the property the int8 conv rests
// on, end to end at kernel level: HWC patches against (ky, kx, channel)-
// permuted weight rows give the same int32 accumulators as channel-major
// patches against the unpermuted rows, through the serial and the parallel
// GEMM and through whichever micro kernels the gates select.
func TestIm2RowI8HWCGemmMatchesChannelMajor(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	// 67 weight rows: sixteen row quads plus remainder rows for the
	// single-row kernel.
	c, h, w, k, stride, pad, outC := 16, 9, 7, 3, 1, 1, 67
	kk, patch := k*k, c*k*k
	src := randF32(rng, c*h*w)
	scale := QuantScale(MaxAbs(src))
	chw, hwc := make([]int8, len(src)), make([]int8, I8PlaneLen(c, h, w, pad))
	QuantizeI8(src, scale, chw)
	QuantizeI8HWC(src, c, h, w, pad, scale, hwc)
	n := Im2ColLen(c, h, w, k, k, stride, pad)
	rows, rowsHWC := make([]int8, n), make([]int8, n)
	oh, ow := Im2RowI8(chw, c, h, w, k, k, stride, pad, rows)
	Im2RowI8HWC(hwc, c, h, w, k, k, stride, pad, rowsHWC)
	wt := randI8(rng, outC*patch)
	wtHWC := make([]int8, len(wt))
	for o := 0; o < outC; o++ {
		for ch := 0; ch < c; ch++ {
			for tap := 0; tap < kk; tap++ {
				wtHWC[o*patch+tap*c+ch] = wt[o*patch+ch*kk+tap]
			}
		}
	}
	want := make([]int32, outC*oh*ow)
	refGemmI8(want, wt, rows, outC, oh*ow, patch)
	forEachI8Kernel(t, func(t *testing.T) {
		for name, gemm := range map[string]func([]int32, []int8, []int8, int, int, int){
			"serial": gemmI8Serial, "parallel": GemmI8Parallel,
		} {
			got := make([]int32, len(want))
			gemm(got, wtHWC, rowsHWC, outC, oh*ow, patch)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: acc[%d] = %d, want %d", name, i, got[i], want[i])
				}
			}
		}
	})
}

// TestQuantizeI8HWCMatchesQuantizeI8: the HWC quantizer is QuantizeI8 plus a
// transpose, nothing else — including when C is 1 and the layouts coincide.
func TestQuantizeI8HWCMatchesQuantizeI8(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, dims := range [][2]int{{1, 17}, {3, 10}, {16, 64}, {5, 1}} {
		c, hw := dims[0], dims[1]
		src := randF32(rng, c*hw)
		src[0] = 1e9 // beyond the clamp at the scale below
		flat, hwc := make([]int8, c*hw), make([]int8, c*hw)
		QuantizeI8(src, 0.02, flat)
		QuantizeI8HWC(src, c, 1, hw, 0, 0.02, hwc)
		for ch := 0; ch < c; ch++ {
			for p := 0; p < hw; p++ {
				if hwc[p*c+ch] != flat[ch*hw+p] {
					t.Fatalf("c%d hw%d: [%d,%d] = %d, want %d", c, hw, ch, p, hwc[p*c+ch], flat[ch*hw+p])
				}
			}
		}
	}
}

// TestMaxAbsQuantizeI8MatchScalarForms sweeps the float32 line densely —
// every 4099th bit pattern, a million finite values of both signs from
// subnormals to 3e38 — plus the values where the kernels' decisions flip:
// ±0, the subnormal edges, the rounding ties and the clamp boundary
// ±127.5·scale with their float neighbours, and values beyond the clamp.
func TestMaxAbsQuantizeI8MatchScalarForms(t *testing.T) {
	var xs []float32
	for b := uint64(0); b < 1<<32; b += 4099 {
		if v := math.Float32frombits(uint32(b)); !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0) {
			xs = append(xs, v)
		}
	}
	scales := []float32{1, 0.02, 3.7, 1e-30, 1e30}
	for _, s := range scales {
		for _, q := range []float32{0.5, 1.5, 126.5, 127, 127.5, 128, 1000} {
			for _, v := range []float32{q * s, math.Nextafter32(q*s, 0), math.Nextafter32(q*s, math.MaxFloat32)} {
				xs = append(xs, v, -v)
			}
		}
	}
	negZero := math.Float32frombits(1 << 31)
	xs = append(xs, 0, negZero, math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007FFFFF), math.Float32frombits(0x00800000), math.MaxFloat32, -math.MaxFloat32)

	got, want := make([]int8, len(xs)), make([]int8, len(xs))
	for _, s := range scales {
		QuantizeI8(xs, s, got)
		quantizeI8Ref(xs, s, want)
		for i := range xs {
			if got[i] != want[i] {
				t.Fatalf("QuantizeI8(%v [%#x], scale %v) = %d, want %d", xs[i], math.Float32bits(xs[i]), s, got[i], want[i])
			}
		}
	}
	// MaxAbs over windows of every length up to two unrolled blocks plus a
	// tail, sliding across the sweep so each lane sees the maximum.
	for n := 0; n <= 11; n++ {
		for off := 0; off+n <= len(xs); off += 997 {
			win := xs[off : off+n]
			if g, w := MaxAbs(win), maxAbsRef(win); math.Float32bits(g) != math.Float32bits(w) {
				t.Fatalf("MaxAbs(xs[%d:%d]) = %v, want %v", off, off+n, g, w)
			}
		}
	}
	if g, w := MaxAbs(xs), maxAbsRef(xs); g != w {
		t.Fatalf("MaxAbs(sweep) = %v, want %v", g, w)
	}
}

// TestMaxAbsQuantizeI8NonFinite pins what the kernels do off the finite
// line: MaxAbs steps over NaNs wherever they sit and reports +Inf for either
// infinity; QuantizeI8 clamps ±Inf to ±127 and converts NaN as the scalar
// form did (to 0 on amd64 and arm64).
func TestMaxAbsQuantizeI8NonFinite(t *testing.T) {
	nan := float32(math.NaN())
	negNaN := math.Float32frombits(0xFFC00001)
	inf := float32(math.Inf(1))
	for lane := 0; lane < 6; lane++ {
		xs := []float32{1, -2, 0.5, 1.5, -0.25, 0.75}
		xs[lane] = nan
		xs[(lane+3)%6] = negNaN
		if g, w := MaxAbs(xs), maxAbsRef(xs); g != w || math.IsNaN(float64(g)) {
			t.Fatalf("MaxAbs with NaNs at %d,%d = %v, want %v", lane, (lane+3)%6, g, w)
		}
	}
	if g := MaxAbs([]float32{nan, negNaN, nan}); g != 0 {
		t.Fatalf("MaxAbs(all NaN) = %v, want 0", g)
	}
	for _, xs := range [][]float32{{1, -inf, 3}, {inf}, {nan, 2, inf, 1, 1}} {
		if g := MaxAbs(xs); g != inf {
			t.Fatalf("MaxAbs(%v) = %v, want +Inf", xs, g)
		}
	}
	xs := []float32{inf, -inf, nan, negNaN}
	got, want := make([]int8, 4), make([]int8, 4)
	QuantizeI8(xs, 0.5, got)
	quantizeI8Ref(xs, 0.5, want)
	if got[0] != 127 || got[1] != -127 {
		t.Fatalf("QuantizeI8(±Inf) = %d, %d, want 127, -127", got[0], got[1])
	}
	if got[2] != want[2] || got[3] != want[3] {
		t.Fatalf("QuantizeI8(NaN) = %d, %d, scalar form gives %d, %d", got[2], got[3], want[2], want[3])
	}
}
