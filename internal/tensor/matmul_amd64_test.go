//go:build amd64

package tensor

import "testing"

// TestGemmSIMDBitIdenticalToScalarFallback runs the whole float32 kernel
// with the tile path enabled and disabled — plain and with the epilogue —
// and requires identical output: the dispatch choice must be unobservable.
func TestGemmSIMDBitIdenticalToScalarFallback(t *testing.T) {
	if !hasSIMD {
		t.Skip("no AVX tile kernel on this CPU")
	}
	rng := NewRNG(19)
	for _, sz := range [][3]int{{33, 29, 83}, {8, 16, 2*kBlock + 3}, {6, 7, 1}, {64, 256, 144}} {
		m, n, k := sz[0], sz[1], sz[2]
		a, b := gemmOperands(rng, m, n, k, m == 33)
		row := make([]float32, m)
		for i := range row {
			row[i] = float32(rng.Norm())
		}
		for _, ep := range []*Epilogue{nil, {Mean: row, Gamma: row, InvStd: row, Beta: row, ReLU: true}} {
			simd, scalar := make([]float32, m*n), make([]float32, m*n)
			GemmFusedSerial(simd, a.data, b.data, m, n, k, ep)
			func() {
				defer func(v bool) { hasSIMD = v }(hasSIMD)
				hasSIMD = false
				GemmFusedSerial(scalar, a.data, b.data, m, n, k, ep)
			}()
			for i := range simd {
				if !sameF32(simd[i], scalar[i]) {
					t.Fatalf("[%d,%d]x[%d,%d] epilogue=%v: dst[%d] SIMD %v vs scalar %v",
						m, k, k, n, ep != nil, i, simd[i], scalar[i])
				}
			}
		}
	}
}

// TestConvGemmSIMDBitIdenticalToScalarFallback: the convolution entry point
// packs its panels from the image under the tile kernel and lowers with
// Im2Col under the portable one (each sized by ConvScratchLen for its own
// kernel); the choice must be unobservable too.
func TestConvGemmSIMDBitIdenticalToScalarFallback(t *testing.T) {
	if !hasSIMD {
		t.Skip("no AVX tile kernel on this CPU")
	}
	rng := NewRNG(43)
	for i, g := range []ConvGeom{
		{16, 16, 16, 3, 3, 1, 1}, {64, 2, 2, 3, 3, 1, 1}, {3, 9, 11, 5, 5, 2, 2}, {7, 6, 6, 1, 1, 2, 0}, {5, 4, 4, 1, 1, 1, 0},
	} {
		m := 7 + i
		oh, ow := g.OutDims()
		wt, img := convOperands(rng, m, g, i == 0)
		for _, ep := range []*Epilogue{nil, testEpilogue(rng, m, true)} {
			simd, scalar := make([]float32, m*oh*ow), make([]float32, m*oh*ow)
			ConvGemmFusedParallel(simd, wt, img, m, g, poisoned(ConvScratchLen(g), 1), ep)
			func() {
				defer func(v bool) { hasSIMD = v }(hasSIMD)
				hasSIMD = false
				ConvGemmFusedParallel(scalar, wt, img, m, g, poisoned(ConvScratchLen(g), 1), ep)
			}()
			for j := range simd {
				if !sameF32(simd[j], scalar[j]) {
					t.Fatalf("%+v epilogue=%v: dst[%d] SIMD %v vs scalar %v", g, ep != nil, j, simd[j], scalar[j])
				}
			}
		}
	}
}
