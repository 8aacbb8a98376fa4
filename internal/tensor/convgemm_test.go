package tensor

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// This file locks the convolution entry point — panels packed from the
// image — to what it replaced: Im2Col, then the dense GEMM.

// convOperands draws an [m, C·KH·KW] weight matrix and a CHW image for g;
// with nonFinite set both carry ±Inf, NaN and -0.
func convOperands(rng *RNG, m int, g ConvGeom, nonFinite bool) (wt, img []float32) {
	a, _ := gemmOperands(rng, m, 1, g.C*g.KH*g.KW, nonFinite)
	_, x := gemmOperands(rng, 1, g.H*g.W, g.C, nonFinite)
	return a.data, x.data
}

// testEpilogue draws an epilogue for m output rows.
func testEpilogue(rng *RNG, m int, relu bool) *Epilogue {
	vec := func(lo, hi float64) []float32 {
		v := make([]float32, m)
		for i := range v {
			v[i] = float32(lo + (hi-lo)*rng.Float64())
		}
		return v
	}
	return &Epilogue{Mean: vec(-1, 1), Gamma: vec(-2, 2), InvStd: vec(0.1, 3), Beta: vec(-1, 1), ReLU: relu}
}

// poisoned returns n NaNs starting off floats into their backing array:
// scratch whose stale contents would show in any product that read them.
func poisoned(n, off int) []float32 {
	buf := make([]float32, off+n)
	for i := range buf {
		buf[i] = float32(math.NaN())
	}
	return buf[off:]
}

// convGemmSplit cuts the product at every row block across the pool, each
// range packing its own panels from the one shared source.
func convGemmSplit(dst, a []float32, _ *NarrowWeights, img []float32, m int, g ConvGeom, scratch []float32, ep *Epilogue) {
	b, n, k := convSource(img, g, scratch)
	splitRows(m, 1, func(r0, r1 int) {
		gemmRows(dst[:m*n], a[:m*k], b, n, k, r0, r1, ep)
	})
}

// checkConvGemm runs the serial, the dispatched and the always-split entry
// point, and the first two again with the weights packed for the narrow
// kernel (which a product NarrowConv admits then runs), plain and with an
// epilogue, into dirty unaligned destinations over NaN-filled unaligned
// scratch, and compares every element with Im2Col + GemmFusedSerial.
func checkConvGemm(t testing.TB, rng *RNG, m int, g ConvGeom, nonFinite bool, off int) {
	t.Helper()
	oh, ow := g.OutDims()
	n, k := oh*ow, g.C*g.KH*g.KW
	wt, img := convOperands(rng, m, g, nonFinite)
	cols := make([]float32, k*n)
	Im2Col(img, g.C, g.H, g.W, g.KH, g.KW, g.Stride, g.Pad, cols)
	wt, img = unaligned(wt, off), unaligned(img, (off+1)%4)
	nw := PackNarrow(wt, m, k)
	for _, ep := range []*Epilogue{nil, testEpilogue(rng, m, off%2 == 0)} {
		want := make([]float32, m*n)
		GemmFusedSerial(want, wt, cols, m, n, k, ep)
		for name, conv := range map[string]func(dst, a []float32, nw *NarrowWeights, img []float32, m int, g ConvGeom, scratch []float32, ep *Epilogue){
			"serial": ConvGemmFusedSerial, "parallel": ConvGemmFusedParallel, "split": convGemmSplit,
			"packed-serial": ConvGemmFusedSerial, "packed-parallel": ConvGemmFusedParallel,
		} {
			got := unaligned(make([]float32, m*n), (off+2)%4)
			for i := range got {
				got[i] = 123.5
			}
			var pack *NarrowWeights
			if strings.HasPrefix(name, "packed") {
				pack = nw
			}
			conv(got, wt, pack, img, m, g, poisoned(ConvScratchLen(g), (off+3)%4), ep)
			for i := range want {
				if !sameF32(want[i], got[i]) {
					t.Fatalf("%+v m=%d epilogue=%v %s %v: element %d = %v, lowered %v",
						g, m, ep != nil, name, f32Level, i, got[i], want[i])
				}
			}
		}
	}
}

// TestConvGemmMatchesLowered sweeps what the packer branches on: every
// geometry of the lowering sweep; output widths that divide the tile, that
// the tile divides, that only half a tile divides (24: every other tile
// ends on the next row) and none of these, at both strides and three
// paddings, over enough rows that tiles start mid-row and end short; and K
// inside one k block, past one and past two, with and without a row-block
// remainder.
func TestConvGemmMatchesLowered(t *testing.T) {
	rng := NewRNG(41)
	i := 0
	loweringGeometries(func(c, h, w, k, stride, pad int) {
		i++
		checkConvGemm(t, rng, 4+i%3, ConvGeom{c, h, w, k, k, stride, pad}, i%5 == 0, i%4)
	})
	for _, ow := range []int{2, 4, 8, 11, 16, 20, 24, 32} {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 1, 2} {
				i++
				w := (ow-1)*stride + 3 - 2*pad
				h := w
				if ow > 8 {
					h = 2*stride + 3 - 2*pad // three output rows
				}
				if h < 1 || w < 1 {
					continue
				}
				checkConvGemm(t, rng, 5+i%4, ConvGeom{3, h, w, 3, 3, stride, pad}, i%3 == 0, i%4)
			}
		}
	}
	for _, c := range []int{28, 29, 57, 64} { // 9·C = 252, 261, 513, 576
		for _, m := range []int{8, 7} {
			for _, hw := range []int{2, 4, 8} {
				i++
				checkConvGemm(t, rng, m, ConvGeom{c, hw, hw, 3, 3, 1, 1}, i%4 == 0, i%4)
			}
		}
	}
	// A product past the dispatch threshold, so the pool really is crossed.
	g := ConvGeom{64, 16, 16, 3, 3, 1, 1}
	if Workers() > 1 && !fansOut(136, 256, 576) {
		t.Fatalf("136x256x576 no longer fans out (grain %d): pick a bigger product", gemmGrain(f32Rows(), 256, 576))
	}
	checkConvGemm(t, rng, 136, g, false, 1)
}

// TestConvGemmNonSquare: a window and an image that are not square, which
// no nn layer builds but the geometry allows.
func TestConvGemmNonSquare(t *testing.T) {
	rng := NewRNG(42)
	for _, g := range []ConvGeom{
		{3, 7, 12, 3, 5, 1, 2}, {2, 9, 4, 1, 3, 2, 1}, {5, 6, 19, 2, 4, 1, 1}, {4, 5, 5, 5, 1, 1, 0},
	} {
		checkConvGemm(t, rng, 6, g, false, 2)
	}
}

// FuzzConvGemmMatchesLowered drives the three dispatch forms over arbitrary
// geometry against the lowered product, at every float32 level.
func FuzzConvGemmMatchesLowered(f *testing.F) {
	f.Add(uint64(1), uint8(16), uint8(16), uint8(16), uint8(2), uint8(0), uint8(1), uint8(16))
	f.Add(uint64(2), uint8(3), uint8(2), uint8(9), uint8(4), uint8(1), uint8(2), uint8(5))
	f.Add(uint64(3), uint8(63), uint8(2), uint8(2), uint8(2), uint8(0), uint8(1), uint8(7))
	f.Add(uint64(4), uint8(5), uint8(5), uint8(33), uint8(0), uint8(0), uint8(0), uint8(9))
	f.Fuzz(func(t *testing.T, seed uint64, c8, h8, w8, k8, s8, p8, m8 uint8) {
		g := ConvGeom{C: 1 + int(c8)%70, H: 1 + int(h8)%12, W: 1 + int(w8)%40, Stride: 1 + int(s8)%3, Pad: int(p8) % 4}
		g.KH = 1 + int(k8)%5
		g.KW = 1 + int(k8/5)%5
		if g.H+2*g.Pad < g.KH || g.W+2*g.Pad < g.KW {
			t.Skip("window larger than the padded image")
		}
		atEveryF32Level(func() { checkConvGemm(t, NewRNG(seed), 1+int(m8)%20, g, seed%3 == 0, int(seed%4)) })
	})
}

// convGemmShapes is VGG18-S's eight stage convolutions (3×3, stride 1,
// pad 1), first to last: the shapes of gemmShapes' first eight rows.
var convGemmShapes = []struct{ inC, outC, hw int }{
	{3, 16, 16}, {16, 16, 16}, {16, 32, 8}, {32, 32, 8},
	{32, 48, 4}, {48, 48, 4}, {48, 64, 2}, {64, 64, 2},
}

// BenchmarkConvGemm prices one image's convolution product per stage shape,
// once per float32 level this CPU runs, as this package ran it before and
// runs it now: lowered is Im2Col into a preplanned column matrix followed by
// GemmFusedSerial, tile is ConvGemmFusedSerial without a narrow pack, and
// packed is ConvGemmFusedSerial with the weights packed once (PackNarrow) as
// a deployment packs them, so the 2×2 stages run the narrow kernel where
// the level has it.
func BenchmarkConvGemm(b *testing.B) {
	for _, l := range f32Kernels {
		for _, s := range convGemmShapes {
			g := ConvGeom{s.inC, s.hw, s.hw, 3, 3, 1, 1}
			n, k := s.hw*s.hw, 9*s.inC
			wt, img := convOperands(NewRNG(6), s.outC, g, false)
			dst := make([]float32, s.outC*n)
			cols := make([]float32, k*n)
			name := fmt.Sprintf("%v/%dx%dx%d_to%d", l, s.inC, s.hw, s.hw, s.outC)
			for _, leg := range []struct {
				name string
				run  func(scratch []float32, nw *NarrowWeights)
			}{
				{"lowered", func([]float32, *NarrowWeights) {
					Im2Col(img, g.C, g.H, g.W, g.KH, g.KW, g.Stride, g.Pad, cols)
					GemmFusedSerial(dst, wt, cols, s.outC, n, k, nil)
				}},
				{"tile", func(scratch []float32, _ *NarrowWeights) {
					ConvGemmFusedSerial(dst, wt, nil, img, s.outC, g, scratch, nil)
				}},
				{"packed", func(scratch []float32, nw *NarrowWeights) {
					ConvGemmFusedSerial(dst, wt, nw, img, s.outC, g, scratch, nil)
				}},
			} {
				b.Run(name+"/"+leg.name, func(b *testing.B) {
					b.ReportAllocs()
					ran := withF32Level(l, func() {
						scratch := make([]float32, ConvScratchLen(g))
						nw := PackNarrow(wt, s.outC, k)
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							leg.run(scratch, nw)
						}
					})
					if !ran {
						b.Skipf("no %v kernel on this CPU", l)
					}
				})
			}
		}
	}
}
