//go:build linux && amd64

package tensor

import (
	"os"
	"syscall"
	"testing"
	"unsafe"
)

// TestConvGemmReadsOnlyTheImage puts the image flush against PROT_NONE
// pages, once at the start of the readable memory between them and once at
// its end, so a lane the packer loads although it lies outside the image —
// a padding tap at offset −1, a row past the last — faults and kills the
// test binary. Every geometry of the lowering sweep and every VGG18-S stage
// runs serial and dispatched, on the tile path and with the weights packed
// for the narrow kernel, at every float32 level, and must match Im2Col +
// GemmFusedSerial bit for bit.
func TestConvGemmReadsOnlyTheImage(t *testing.T) {
	const pages = 8 // readable: room for the largest stage input, 16 KiB
	page := os.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, (pages+2)*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	for _, guard := range [][]byte{mem[:page], mem[(pages+1)*page:]} {
		if err := syscall.Mprotect(guard, syscall.PROT_NONE); err != nil {
			t.Skipf("mprotect: %v", err)
		}
	}
	readable := unsafe.Slice((*float32)(unsafe.Pointer(&mem[page])), pages*page/4)
	var geoms []ConvGeom
	loweringGeometries(func(c, h, w, k, stride, pad int) {
		geoms = append(geoms, ConvGeom{c, h, w, k, k, stride, pad})
	})
	for _, s := range convGemmShapes {
		geoms = append(geoms, ConvGeom{s.inC, s.hw, s.hw, 3, 3, 1, 1})
	}
	rng := NewRNG(45)
	atEveryF32Level(func() {
		for i, g := range geoms {
			m := 5 + i%4
			oh, ow := g.OutDims()
			n, k := oh*ow, g.C*g.KH*g.KW
			wt, src := convOperands(rng, m, g, i%5 == 0)
			cols := make([]float32, k*n)
			Im2Col(src, g.C, g.H, g.W, g.KH, g.KW, g.Stride, g.Pad, cols)
			want := make([]float32, m*n)
			GemmFusedSerial(want, wt, cols, m, n, k, nil)
			nw := PackNarrow(wt, m, k)
			size := len(src)
			for place, img := range map[string][]float32{"first": readable[:size:size], "last": readable[len(readable)-size:]} {
				copy(img, src)
				for name, conv := range map[string]func(dst, a []float32, nw *NarrowWeights, img []float32, m int, g ConvGeom, scratch []float32, ep *Epilogue){
					"serial": ConvGemmFusedSerial, "parallel": ConvGemmFusedParallel,
				} {
					for _, pack := range []*NarrowWeights{nil, nw} {
						got := make([]float32, m*n)
						conv(got, wt, pack, img, m, g, poisoned(ConvScratchLen(g), 1), nil)
						for j := range want {
							if !sameF32(got[j], want[j]) {
								t.Fatalf("%+v m=%d %v %s packed=%v, image %s in its pages: element %d = %v, lowered %v",
									g, m, f32Level, name, pack != nil, place, j, got[j], want[j])
							}
						}
					}
				}
			}
		}
	})
}
