package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// This file locks DepthwiseFused to its definition: depthwiseChannel on every
// channel, then ApplyRow.

// mobileNetDepthwise is the depthwise convolutions of MobileNet-S (its six
// blocks, first to last) and then TinyMobileNet (two): 3×3, pad 1.
var mobileNetDepthwise = []ConvGeom{
	{16, 16, 16, 3, 3, 1, 1}, {24, 16, 16, 3, 3, 2, 1}, {32, 8, 8, 3, 3, 1, 1},
	{32, 8, 8, 3, 3, 2, 1}, {48, 4, 4, 3, 3, 1, 1}, {48, 4, 4, 3, 3, 2, 1},
	{8, 16, 16, 3, 3, 2, 1}, {12, 8, 8, 3, 3, 2, 1},
}

// dwGeometries is the bit-identity table: the zoo's shapes, then each of
// them unpadded and pruned to a channel count the zoo never builds, then odd
// and tiny images at both strides and three paddings, and the geometries
// that stay on the definition (a 5×5 window, stride 3).
var dwGeometries = func() []ConvGeom {
	gs := append([]ConvGeom{}, mobileNetDepthwise...)
	for _, g := range mobileNetDepthwise[:6] {
		g.Pad = 0
		gs = append(gs, g)
		g.C, g.Pad = g.C*2/3+1, 1
		gs = append(gs, g)
	}
	for _, hw := range [][2]int{{1, 1}, {2, 2}, {1, 9}, {2, 7}, {7, 9}, {9, 7}, {9, 2}, {5, 13}, {11, 17}} {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 1, 2} {
				g := ConvGeom{3, hw[0], hw[1], 3, 3, stride, pad}
				if oh, ow := g.OutDims(); oh >= 1 && ow >= 1 {
					gs = append(gs, g)
				}
			}
		}
	}
	return append(gs, ConvGeom{4, 9, 9, 5, 5, 1, 2}, ConvGeom{5, 7, 8, 5, 5, 2, 1}, ConvGeom{3, 10, 9, 3, 3, 3, 1})
}()

// dwReference is the definition over one image.
func dwReference(g ConvGeom, filt, img []float32, ep *Epilogue) []float32 {
	oh, ow := g.OutDims()
	ohw, kk, hw := oh*ow, g.KH*g.KW, g.H*g.W
	out := make([]float32, g.C*ohw)
	for ch := 0; ch < g.C; ch++ {
		depthwiseChannel(out[ch*ohw:(ch+1)*ohw], filt[ch*kk:(ch+1)*kk], img[ch*hw:(ch+1)*hw], g)
		if ep != nil {
			ep.ApplyRow(out[ch*ohw:(ch+1)*ohw], ch)
		}
	}
	return out
}

// dwSpecials is what an add or a multiply can get wrong: NaNs of both signs,
// ±Inf, -0 and +0.
var dwSpecials = []float32{
	float32(math.NaN()), math.Float32frombits(0xFFC00001), float32(math.Inf(1)),
	float32(math.Inf(-1)), float32(math.Copysign(0, -1)), 0,
}

// dwOperands draws a filter bank and batch images for g. With specials set,
// the images carry dwSpecials and the first three channels' filters one
// non-finite weight each (those channels must take the definition), and
// every fifth channel's filter is all ±0.
func dwOperands(rng *rand.Rand, g ConvGeom, batch int, specials bool) (filt, imgs []float32) {
	kk := g.KH * g.KW
	filt = randF32(rng, g.C*kk)
	imgs = randF32(rng, batch*g.C*g.H*g.W)
	if !specials {
		return filt, imgs
	}
	for i := 0; i < len(imgs); i += 1 + rng.Intn(9) {
		imgs[i] = dwSpecials[rng.Intn(len(dwSpecials))]
	}
	for ch := 0; ch < g.C; ch++ {
		w := filt[ch*kk : (ch+1)*kk]
		switch {
		case ch < 3:
			w[rng.Intn(kk)] = dwSpecials[ch]
		case ch%5 == 0:
			for i := range w {
				w[i] = dwSpecials[4+i%2]
			}
		}
	}
	return filt, imgs
}

// checkDepthwise runs batch images of g through DepthwiseFused — one at a
// time and, for a batch, across the pool with a scratch plane per worker —
// into dirty unaligned destinations over NaN-filled unaligned scratch, with
// the vector kernel on and off, and compares every element with the
// definition.
func checkDepthwise(t testing.TB, g ConvGeom, batch int, filt, imgs []float32, ep *Epilogue, off int) {
	t.Helper()
	oh, ow := g.OutDims()
	in, out := g.C*g.H*g.W, g.C*oh*ow
	want := make([]float32, 0, batch*out)
	for i := 0; i < batch; i++ {
		want = append(want, dwReference(g, filt, imgs[i*in:(i+1)*in], ep)...)
	}
	filt, imgs = unaligned(filt, off), unaligned(imgs, (off+1)%4)
	scratchLen := DepthwiseScratchLen(g)
	for _, vector := range []bool{true, false} {
		got := unaligned(make([]float32, batch*out), (off+2)%4)
		for i := range got {
			got[i] = 123.5
		}
		ran := withSIMD(vector, func() {
			if batch == 1 {
				DepthwiseFused(got, filt, imgs, g, poisoned(scratchLen, (off+3)%4), ep)
				return
			}
			scratch := make([][]float32, Workers())
			for w := range scratch {
				scratch[w] = poisoned(scratchLen, w%4)
			}
			Parallel(batch, 1, func(w, lo, hi int) {
				for i := lo; i < hi; i++ {
					DepthwiseFused(got[i*out:(i+1)*out], filt, imgs[i*in:(i+1)*in], g, scratch[w], ep)
				}
			})
		})
		if !ran {
			continue
		}
		for i := range want {
			if !sameF32(got[i], want[i]) {
				t.Fatalf("%+v batch %d epilogue=%v vector=%v: out[%d] (channel %d) = %v [%#x], definition %v [%#x]",
					g, batch, ep != nil, vector, i, i%out/(oh*ow), got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
		}
	}
}

// TestDepthwiseMatchesDefinition: on every geometry of the table, at batch 1
// and 3, with and without the epilogue (rectified or not), on plain values
// and on values full of NaN, ±Inf and ±0 in both the image and the filters,
// the kernel produces the definition's bits.
func TestDepthwiseMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	if hasSIMD {
		for _, g := range mobileNetDepthwise {
			if !dwVector(g) {
				t.Fatalf("%+v does not take the vector kernel", g)
			}
		}
	}
	for i, g := range dwGeometries {
		for _, batch := range []int{1, 3} {
			for _, specials := range []bool{false, true} {
				filt, imgs := dwOperands(rng, g, batch, specials)
				for _, ep := range []*Epilogue{nil, testEpilogue(NewRNG(uint64(i)), g.C, true), testEpilogue(NewRNG(uint64(i)), g.C, false)} {
					checkDepthwise(t, g, batch, filt, imgs, ep, i%4)
				}
			}
		}
	}
}

// FuzzDepthwiseMatchesDefinition drives the kernel over arbitrary geometry
// (mostly 3×3, the vector kernel's window) and raw float bit patterns in the
// filters and the image — NaN payloads, infinities, denormals, -0.
func FuzzDepthwiseMatchesDefinition(f *testing.F) {
	f.Add(uint8(16), uint8(16), uint8(16), uint8(0), uint8(0), uint8(1), uint8(1), []byte{0x00, 0x00, 0x80, 0x3f, 0xdb, 0x0f, 0x49, 0xc0})
	f.Add(uint8(24), uint8(16), uint8(16), uint8(0), uint8(1), uint8(1), uint8(2), []byte{0x00, 0x00, 0xc0, 0x7f, 0x00, 0x00, 0x80, 0xff, 0x01})
	f.Add(uint8(5), uint8(2), uint8(7), uint8(0), uint8(1), uint8(2), uint8(0), []byte{0x00, 0x00, 0x00, 0x80, 0x12, 0x34, 0x56})
	f.Add(uint8(3), uint8(9), uint8(9), uint8(250), uint8(2), uint8(2), uint8(3), []byte{})
	f.Fuzz(func(t *testing.T, c8, h8, w8, k8, s8, p8, ep8 uint8, raw []byte) {
		g := ConvGeom{C: 1 + int(c8)%50, H: 1 + int(h8)%20, W: 1 + int(w8)%26, KH: 3, KW: 3, Stride: 1 + int(s8)%3, Pad: int(p8) % 4}
		if k8 >= 192 {
			g.KH, g.KW = 1+int(k8)%5, 1+int(k8)%5
		}
		if oh, ow := g.OutDims(); oh < 1 || ow < 1 {
			t.Skip("window larger than the padded image")
		}
		// The bytes repeat across the filters and then the image (all zeros
		// for no bytes), the image starting one byte further on.
		bitsAt := func(i int) float32 {
			var bits uint32
			for j := 0; j < 4 && len(raw) > 0; j++ {
				bits |= uint32(raw[(4*i+j)%len(raw)]) << (8 * j)
			}
			return math.Float32frombits(bits)
		}
		filt := make([]float32, g.C*g.KH*g.KW)
		img := make([]float32, g.C*g.H*g.W)
		for i := range filt {
			filt[i] = bitsAt(i)
		}
		for i := range img {
			img[i] = bitsAt(len(filt) + i + 1)
		}
		var ep *Epilogue
		if ep8%3 != 0 {
			ep = testEpilogue(NewRNG(uint64(ep8)), g.C, ep8%3 == 1)
		}
		checkDepthwise(t, g, 1, filt, img, ep, int(ep8)%4)
	})
}

// BenchmarkDepthwiseForwardInto is the kernel rung under nn's
// DepthwiseConv2D.ForwardInto: one image through each of MobileNet-S's six
// depthwise convolutions, on the vector kernel and on the definition it
// replaced, inputs rotated over 64 samples. DepthwiseFused's comment holds
// the table.
func BenchmarkDepthwiseForwardInto(b *testing.B) {
	const samples = 64
	for _, g := range mobileNetDepthwise[:6] {
		rng := rand.New(rand.NewSource(6))
		oh, ow := g.OutDims()
		in := g.C * g.H * g.W
		filt, imgs := dwOperands(rng, g, samples, false)
		dst := make([]float32, g.C*oh*ow)
		scratch := make([]float32, DepthwiseScratchLen(g))
		for _, leg := range []struct {
			name   string
			vector bool
		}{{"vector", true}, {"definition", false}} {
			b.Run(fmt.Sprintf("%dx%dx%d_s%d/%s", g.C, g.H, g.W, g.Stride, leg.name), func(b *testing.B) {
				ran := withSIMD(leg.vector, func() {
					for i := 0; i < b.N; i++ {
						j := i % samples
						DepthwiseFused(dst, filt, imgs[j*in:(j+1)*in], g, scratch, nil)
					}
				})
				if !ran {
					b.Skip("no vector kernel on this CPU")
				}
			})
		}
	}
}
