//go:build amd64

package tensor

import "testing"

// TestGemmSIMDBitIdenticalToScalarFallback runs the whole float32 kernel at
// every level this CPU passes — plain and with the epilogue — and requires
// the scalar level's output: the dispatch choice must be unobservable. The
// row counts cover whole 8-row tiles, a 4-row remainder and single rows.
func TestGemmSIMDBitIdenticalToScalarFallback(t *testing.T) {
	rng := NewRNG(19)
	for _, sz := range [][3]int{{33, 29, 83}, {8, 16, 2*kBlock + 3}, {6, 7, 1}, {64, 256, 144}, {15, 9, 40}, {20, 33, 5}} {
		m, n, k := sz[0], sz[1], sz[2]
		a, b := gemmOperands(rng, m, n, k, m%3 == 0)
		row := make([]float32, m)
		for i := range row {
			row[i] = float32(rng.Norm())
		}
		for _, ep := range []*Epilogue{nil, {Mean: row, Gamma: row, InvStd: row, Beta: row, ReLU: true}} {
			scalar := make([]float32, m*n)
			withF32Level(f32Scalar, func() { GemmFusedSerial(scalar, a.data, b.data, m, n, k, ep) })
			forEachF32Level(t, func(t *testing.T) {
				simd := make([]float32, m*n)
				GemmFusedSerial(simd, a.data, b.data, m, n, k, ep)
				for i := range simd {
					if !sameF32(simd[i], scalar[i]) {
						t.Fatalf("[%d,%d]x[%d,%d] epilogue=%v: dst[%d] %v %v vs scalar %v",
							m, k, k, n, ep != nil, i, f32Level, simd[i], scalar[i])
					}
				}
			})
		}
	}
}

// TestConvGemmSIMDBitIdenticalToScalarFallback: the convolution entry point
// packs its panels from the image under the tile kernels, runs the narrow
// kernel for a packed 2×2 or pointwise 2×2 product at AVX-512, and lowers
// with Im2Col under the portable one (each sized by ConvScratchLen for its
// own kernel); the choice must be unobservable at every level.
func TestConvGemmSIMDBitIdenticalToScalarFallback(t *testing.T) {
	rng := NewRNG(43)
	for i, g := range []ConvGeom{
		{16, 16, 16, 3, 3, 1, 1}, {64, 2, 2, 3, 3, 1, 1}, {3, 9, 11, 5, 5, 2, 2}, {7, 6, 6, 1, 1, 2, 0}, {5, 4, 4, 1, 1, 1, 0},
		{48, 2, 2, 1, 1, 1, 0},
	} {
		m := 7 + 3*i // 7, 10, 13, 16, 19, 22: every remainder the 8-row tile leaves
		oh, ow := g.OutDims()
		wt, img := convOperands(rng, m, g, i == 0)
		for _, ep := range []*Epilogue{nil, testEpilogue(rng, m, true)} {
			scalar := make([]float32, m*oh*ow)
			withF32Level(f32Scalar, func() {
				ConvGemmFusedParallel(scalar, wt, nil, img, m, g, poisoned(ConvScratchLen(g), 1), ep)
			})
			forEachF32Level(t, func(t *testing.T) {
				simd := make([]float32, m*oh*ow)
				ConvGemmFusedParallel(simd, wt, PackNarrow(wt, m, g.C*g.KH*g.KW), img, m, g, poisoned(ConvScratchLen(g), 1), ep)
				for j := range simd {
					if !sameF32(simd[j], scalar[j]) {
						t.Fatalf("%+v epilogue=%v: dst[%d] %v %v vs scalar %v", g, ep != nil, j, f32Level, simd[j], scalar[j])
					}
				}
			})
		}
	}
}
