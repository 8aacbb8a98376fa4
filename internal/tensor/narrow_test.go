package tensor

import (
	"fmt"
	"testing"
)

// This file locks the narrow kernel's contract: for every product it runs,
// the tile kernel's output and the scalar definition's, bit for bit.

// narrowDefinition is the convolution as the scalar level defines it: each
// output summed from +0 over ascending p, one mul and one add rounding per
// term, then the epilogue's row map.
func narrowDefinition(wt, cols []float32, m, n, k int, ep *Epilogue) []float32 {
	out := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float32
			for p := 0; p < k; p++ {
				acc += wt[i*k+p] * cols[p*n+j]
			}
			out[i*n+j] = acc
		}
		if ep != nil {
			ep.ApplyRow(out[i*n:(i+1)*n], i)
		}
	}
	return out
}

// TestGemmNarrowMatchesTileAndDefinition sweeps what the narrow kernel
// branches on — every width it runs, one to narrowCols-1 output positions
// (a loop each up to eight, a second span past that); channel counts
// around its 16-lane halves and 32-lane blocks; k left over by one to three
// from a multiple of four — over plane sources at stride 1 and 2 and dense
// (pointwise) ones, finite and non-finite operands, with the epilogue off,
// on, and rectified. Each product goes through ConvGemmFusedSerial with the
// weights packed, into a dirty destination over scratch whose stale words,
// read as gather offsets, point before the image.
func TestGemmNarrowMatchesTileAndDefinition(t *testing.T) {
	if f32Level < f32AVX512 {
		t.Skipf("no narrow kernel at %v", f32Level)
	}
	rng := NewRNG(71)
	var geoms []ConvGeom
	for n := 1; n < narrowCols; n++ {
		geoms = append(geoms,
			ConvGeom{C: 1 + n%3, H: 1, W: n, KH: 3, KW: 3, Stride: 1, Pad: 1},       // k = 9, 18, 27
			ConvGeom{C: 5 + n%3, H: 1, W: 2*n - 1, KH: 3, KW: 3, Stride: 2, Pad: 1}, // k = 45, 54, 63
			ConvGeom{C: 5 + 4*(n%3) + n%3, H: 1, W: n, KH: 1, KW: 1, Stride: 1},     // dense: k = 5, 10, 15
		)
	}
	geoms = append(geoms, ConvGeom{C: 3, H: 2, W: 2, KH: 3, KW: 3, Stride: 1, Pad: 1},
		ConvGeom{C: 7, H: 2, W: 3, KH: 3, KW: 3, Stride: 1, Pad: 1}, ConvGeom{C: 2, H: 5, W: 5, KH: 3, KW: 3, Stride: 2, Pad: 0})
	for gi, g := range geoms {
		oh, ow := g.OutDims()
		n, k := oh*ow, g.C*g.KH*g.KW
		if !NarrowConv(g) {
			t.Fatalf("%+v: %d positions do not run the narrow kernel", g, n)
		}
		for _, m := range []int{1, 15, 16, 17, 31, 32, 48, 64, 65} {
			nonFinite := (gi+m)%3 == 0
			wt, img := convOperands(rng, m, g, nonFinite)
			cols := make([]float32, k*n)
			Im2Col(img, g.C, g.H, g.W, g.KH, g.KW, g.Stride, g.Pad, cols)
			nw := PackNarrow(wt, m, k)
			for _, ep := range []*Epilogue{nil, testEpilogue(rng, m, false), testEpilogue(rng, m, true)} {
				name := fmt.Sprintf("%+v m=%d nonFinite=%v epilogue=%v", g, m, nonFinite, ep != nil)
				def := narrowDefinition(wt, cols, m, n, k, ep)
				tile := make([]float32, m*n)
				ConvGemmFusedSerial(tile, wt, nil, img, m, g, poisoned(ConvScratchLen(g), 1), ep)
				got := unaligned(make([]float32, m*n), 3)
				for i := range got {
					got[i] = 123.5
				}
				// Stale scratch of -1s reads as negative gather offsets.
				scratch := unaligned(make([]float32, ConvScratchLen(g)), 2)
				for i := range scratch {
					scratch[i] = -1
				}
				ConvGemmFusedSerial(got, wt, nw, img, m, g, scratch, ep)
				for i := range got {
					if !sameF32(got[i], tile[i]) || !sameF32(got[i], def[i]) {
						t.Fatalf("%s: element %d = %v, tile %v, definition %v", name, i, got[i], tile[i], def[i])
					}
				}
			}
		}
	}
}

// TestPackNarrowLayout: block b, row p holds channels 32b..32b+31 at p, the
// last block zero past m; and no pack below AVX-512 or for an empty product.
func TestPackNarrowLayout(t *testing.T) {
	const m, k = 35, 3
	a := make([]float32, m*k)
	for i := range a {
		a[i] = float32(i + 1)
	}
	if !withF32Level(f32AVX512, func() {
		w := PackNarrow(a, m, k)
		if len(w.data) != 2*narrowLanes*k {
			t.Fatalf("pack holds %d floats, want %d", len(w.data), 2*narrowLanes*k)
		}
		for blk := 0; blk < 2; blk++ {
			for p := 0; p < k; p++ {
				for l := 0; l < narrowLanes; l++ {
					var want float32
					if i := blk*narrowLanes + l; i < m {
						want = a[i*k+p]
					}
					if got := w.data[(blk*k+p)*narrowLanes+l]; got != want {
						t.Fatalf("block %d p %d lane %d = %v, want %v", blk, p, l, got, want)
					}
				}
			}
		}
		if PackNarrow(a, 0, k) != nil || PackNarrow(a, m, 0) != nil {
			t.Fatal("an empty product was packed")
		}
	}) {
		t.Log("no AVX-512 on this CPU: only the levels below are checked")
	}
	withF32Level(f32AVX, func() {
		if PackNarrow(a, m, k) != nil {
			t.Fatal("packed below AVX-512")
		}
	})
}

// TestGemmNarrowAllocatesNothing: the narrow product of a VGG18-S 2×2 stage
// with a warm scratch allocates nothing, through either entry point.
func TestGemmNarrowAllocatesNothing(t *testing.T) {
	if f32Level < f32AVX512 {
		t.Skipf("no narrow kernel at %v", f32Level)
	}
	g := ConvGeom{64, 2, 2, 3, 3, 1, 1}
	wt, img := convOperands(NewRNG(73), 64, g, false)
	nw, ep := PackNarrow(wt, 64, 576), testEpilogue(NewRNG(74), 64, true)
	dst, scratch := make([]float32, 64*4), make([]float32, ConvScratchLen(g))
	for name, conv := range map[string]func(dst, a []float32, nw *NarrowWeights, img []float32, m int, g ConvGeom, scratch []float32, ep *Epilogue){
		"serial": ConvGemmFusedSerial, "parallel": ConvGemmFusedParallel,
	} {
		if allocs := testing.AllocsPerRun(50, func() { conv(dst, wt, nw, img, 64, g, scratch, ep) }); allocs != 0 {
			t.Errorf("%s: %v allocations per narrow product, want 0", name, allocs)
		}
	}
}

// BenchmarkNarrowCrossover is the measurement narrowCols is read from: one
// 64-channel product of a 3×3 convolution over 64 input channels (k = 576,
// VGG18-S's last stage) on a dense b, at n output positions, through the
// tile kernel and through the narrow one against weights packed once.
func BenchmarkNarrowCrossover(b *testing.B) {
	if f32Level < f32AVX512 {
		b.Skipf("no narrow kernel at %v", f32Level)
	}
	const m, k = 64, 576
	for _, n := range []int{2, 4, 8, 16} {
		x, y := gemmOperands(NewRNG(5), m, n, k, false)
		nw, dst := PackNarrow(x.data, m, k), make([]float32, m*n)
		b.Run(fmt.Sprintf("n=%d/tile", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				GemmFusedSerial(dst, x.data, y.data, m, n, k, nil)
			}
		})
		b.Run(fmt.Sprintf("n=%d/narrow", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gemmNarrow(dst, nw, y.data, n, n, nil)
			}
		})
	}
}
