package nn

import (
	"math"
	"strings"
	"testing"

	"tbnet/internal/tensor"
)

// inferLayer is a layer's preplanned inference path: an eval-mode forward
// into dst, drawing scratch from the arena.
type inferLayer interface {
	ForwardInto(dst, x *tensor.Tensor, a *Arena)
}

// arenaBytes is the arena's current total buffer footprint.
func arenaBytes(a *Arena) int64 {
	var total int64
	for _, t := range a.bufs {
		total += int64(t.Size()) * 4
	}
	for _, c := range a.cols {
		total += int64(cap(c)) * 4
	}
	for _, b := range a.i8bufs {
		total += int64(cap(b))
	}
	for _, b := range a.i8cols {
		total += int64(cap(b))
	}
	for _, b := range a.i32buf {
		total += int64(cap(b)) * 4
	}
	return total + int64(cap(a.invStd))*4
}

// checkInto asserts the ForwardInto path of a layer is bit-identical to its
// eval-mode Forward path for the given input: the same bit patterns, so a
// +0/-0 swap fails and a NaN equals itself.
func checkInto(t *testing.T, l Layer, x *tensor.Tensor) {
	t.Helper()
	into, ok := l.(inferLayer)
	if !ok {
		t.Fatalf("%s has no ForwardInto", l.Name())
	}
	want := l.Forward(x, false)
	dst := tensor.New(l.OutShape(x.Shape())...)
	dst.Fill(99) // stale contents must be fully overwritten
	a := NewArena()
	into.ForwardInto(dst, x, a)
	if !dst.SameShape(want) {
		t.Fatalf("%s: ForwardInto shape %v, Forward shape %v", l.Name(), dst.Shape(), want.Shape())
	}
	wd, gd := want.Data(), dst.Data()
	for i := range wd {
		if math.Float32bits(wd[i]) != math.Float32bits(gd[i]) {
			t.Fatalf("%s: element %d = %v via ForwardInto, %v via Forward", l.Name(), i, gd[i], wd[i])
		}
	}
	// A second pass through the same arena must reuse the warm buffers and
	// still agree (the steady-state serving condition).
	into.ForwardInto(dst, x, a)
	for i := range wd {
		if math.Float32bits(wd[i]) != math.Float32bits(gd[i]) {
			t.Fatalf("%s: warm-arena element %d = %v, want %v", l.Name(), i, gd[i], wd[i])
		}
	}
}

func intoInput(t *testing.T, seed uint64, shape ...int) *tensor.Tensor {
	t.Helper()
	x := tensor.New(shape...)
	tensor.NewRNG(seed).FillNormal(x, 0, 1)
	return x
}

func TestForwardIntoMatchesForward(t *testing.T) {
	rng := tensor.NewRNG(77)

	cases := []struct {
		layer Layer
		x     *tensor.Tensor
	}{
		{NewConv2D("conv", 3, 8, 3, 1, 1, false, rng), intoInput(t, 2, 2, 3, 8, 8)},
		{NewConv2D("conv-bias", 3, 8, 3, 2, 1, true, rng), intoInput(t, 3, 3, 3, 9, 9)},
		{NewConv2D("conv-1x1", 5, 7, 1, 1, 0, false, rng), intoInput(t, 4, 1, 5, 6, 6)},
		{NewDepthwiseConv2D("dw", 6, 3, 1, 1, rng), intoInput(t, 5, 2, 6, 8, 8)},
		{NewDepthwiseConv2D("dw-s2", 6, 3, 2, 1, rng), intoInput(t, 6, 1, 6, 9, 9)},
		{NewReLU("relu"), intoInput(t, 8, 2, 4, 3, 3)},
		{NewMaxPool2D("pool", 2), intoInput(t, 9, 2, 3, 8, 8)},
		{NewGlobalAvgPool("gap"), intoInput(t, 10, 3, 5, 4, 4)},
		{NewDense("fc", 24, 10, rng), intoInput(t, 11, 4, 24)},
	}
	for _, tc := range cases {
		checkInto(t, tc.layer, tc.x)
	}
}

// TestConvPointwiseSkipsLowering: a 1×1 / stride 1 / pad 0 convolution feeds
// the input sample to the GEMM as its column matrix. The result must equal
// the lowered form (Im2Col, then the same GEMM) bit for bit, and the arena's
// column scratch must stay untouched — the skip, observed.
func TestConvPointwiseSkipsLowering(t *testing.T) {
	conv := NewConv2D("pw", 5, 7, 1, 1, 0, true, tensor.NewRNG(78))
	tensor.NewRNG(79).FillNormal(conv.B.Value, 0, 0.1)
	for _, batch := range []int{1, 3} {
		x := intoInput(t, 12, batch, 5, 6, 4)
		a := NewArena()
		got := tensor.New(batch, 7, 6, 4)
		conv.ForwardInto(got, x, a)
		if arenaBytes(a) != 0 {
			t.Fatalf("batch %d: pointwise conv drew %d bytes of arena scratch", batch, arenaBytes(a))
		}
		cols := make([]float32, 5*24)
		want := make([]float32, 7*24)
		for i := 0; i < batch; i++ {
			tensor.Im2Col(x.Data()[i*5*24:(i+1)*5*24], 5, 6, 4, 1, 1, 1, 0, cols)
			tensor.GemmSerial(want, conv.W.Value.Data(), cols, 7, 24, 5)
			for ch := 0; ch < 7; ch++ {
				for p := 0; p < 24; p++ {
					if w, g := want[ch*24+p]+conv.B.Value.Data()[ch], got.Data()[(i*7+ch)*24+p]; g != w {
						t.Fatalf("batch %d out[%d,%d,%d] = %v, want %v", batch, i, ch, p, g, w)
					}
				}
			}
		}
	}
}

// TestConvForwardIntoSkipsColumnMatrix: a 3×3 convolution's inference path
// draws the sample inside its zero border from the arena — (H+2)·(W+2)
// floats per channel — not the 9× column matrix, at batch 1 and across the
// pool's per-worker scratch. (The portable kernel still lowers with Im2Col;
// which one runs is what the kernels: line says.)
func TestConvForwardIntoSkipsColumnMatrix(t *testing.T) {
	if !strings.Contains(tensor.KernelStatus(), "f32conv=packed-from-image") {
		t.Skip("the portable kernel lowers with Im2Col: " + tensor.KernelStatus())
	}
	const inC, outC, h, w = 16, 8, 12, 10
	conv := NewConv2D("c", inC, outC, 3, 1, 1, false, tensor.NewRNG(80))
	for _, batch := range []int{1, 2} {
		a := NewArena()
		x := intoInput(t, 13, batch, inC, h, w)
		dst := a.Tensor4("out", batch, outC, h, w)
		conv.ForwardInto(dst, x, a)
		output := int64(dst.Size()) * 4
		if limit := int64(batch*2*inC*(h+2)*(w+2)*4) + output; arenaBytes(a) >= limit {
			t.Fatalf("batch %d: arena holds %d bytes, want under %d", batch, arenaBytes(a), limit)
		}
		if cols := int64(9 * inC * h * w * 4); arenaBytes(a)-output >= cols {
			t.Fatalf("batch %d: %d bytes of scratch, a column matrix is %d", batch, arenaBytes(a)-output, cols)
		}
	}
}

// checkPoolMatchesTraining compares the inference pool with the
// argmax-recording training pool on x, bit for bit, into a dirty
// destination.
func checkPoolMatchesTraining(t *testing.T, k int, x *tensor.Tensor) {
	t.Helper()
	pool := NewMaxPool2D("p", k)
	want := pool.Forward(x, true)
	got := tensor.New(pool.OutShape(x.Shape())...)
	got.Fill(99)
	pool.ForwardInto(got, x, nil)
	for i, wv := range want.Data() {
		if gv := got.Data()[i]; math.Float32bits(gv) != math.Float32bits(wv) {
			t.Fatalf("K=%d %v: out[%d] = %v [%#x], training pool %v [%#x]",
				k, x.Shape(), i, gv, math.Float32bits(gv), wv, math.Float32bits(wv))
		}
	}
}

// TestMaxPoolForwardIntoMatchesTrainingPool: the inference pool (for K = 2
// tensor.MaxPool2) gives, bit for bit, the maxima the argmax-recording
// training pool gives, on windows full of what a comparison can get wrong:
// NaNs of both signs first, last and alone, ±Inf, -0 against +0 in either
// order, ties, and all-negative windows. The inputs are an odd-sized one
// whose last row and column the pool must ignore, every plane the zoo pools
// (16², 8², 4² and 2² at VGG18-S's and TinyVGG's channel counts), and
// batches whose output counts are no multiple of a vector's width.
func TestMaxPoolForwardIntoMatchesTrainingPool(t *testing.T) {
	nan, negNaN := float32(math.NaN()), math.Float32frombits(0xFFC00001)
	inf, negZero := float32(math.Inf(1)), float32(math.Copysign(0, -1))
	special := []float32{nan, negNaN, inf, -inf, negZero, 0, 1, 1, -1, -2, 0.5, 3}
	rng := tensor.NewRNG(81)
	input := func(shape ...int) *tensor.Tensor {
		x := tensor.New(shape...)
		xd := x.Data()
		for i := range xd {
			switch rng.Intn(3) {
			case 0:
				xd[i] = special[rng.Intn(len(special))]
			case 1:
				xd[i] = 0 // post-ReLU: windows of ties
			default:
				xd[i] = float32(rng.Norm())
			}
		}
		return x
	}
	for _, k := range []int{2, 3} {
		checkPoolMatchesTraining(t, k, input(3, 5, 4*k+1, 6*k+k-1))
	}
	for _, c := range []int{16, 32, 48, 64, 8, 12} {
		for _, hw := range []int{16, 8, 4, 2} {
			checkPoolMatchesTraining(t, 2, input(1, c, hw, hw))
		}
	}
	for _, hw := range []int{16, 8, 4, 2} {
		checkPoolMatchesTraining(t, 2, input(3, 5, hw, hw)) // 3·5·(hw/2)² outputs: odd
	}
}

// FuzzMaxPool2MatchesTrainingPool drives the 2×2 inference pool over raw
// float bit patterns — every NaN payload, infinities, denormals, -0 — and
// arbitrary geometry against the training pool.
func FuzzMaxPool2MatchesTrainingPool(f *testing.F) {
	f.Add(uint8(2), uint8(16), uint8(16), uint8(16), []byte{0, 0, 0xc0, 0x7f, 0, 0, 0, 0x80, 1, 0, 0x80, 0xff})
	f.Add(uint8(1), uint8(64), uint8(2), uint8(2), []byte{1, 2, 3, 4, 0, 0, 0x80, 0x7f})
	f.Add(uint8(3), uint8(5), uint8(9), uint8(13), []byte{0, 0, 0, 0x80, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, n8, c8, h8, w8 uint8, raw []byte) {
		if len(raw) < 4 {
			t.Skip("no float to tile the input with")
		}
		x := tensor.New(1+int(n8)%3, 1+int(c8)%70, 1+int(h8)%40, 1+int(w8)%40)
		xd := x.Data()
		for i := range xd {
			j := 4 * (i % (len(raw) / 4))
			xd[i] = math.Float32frombits(uint32(raw[j]) | uint32(raw[j+1])<<8 | uint32(raw[j+2])<<16 | uint32(raw[j+3])<<24)
		}
		checkPoolMatchesTraining(t, 2, x)
	})
}

// TestForwardIntoInPlace locks the documented in-place contract of the
// element-wise layers: dst == x must produce the same values as Forward.
func TestForwardIntoInPlace(t *testing.T) {
	bn := NewBatchNorm2D("bn", 4)
	bn.Forward(intoInput(t, 20, 4, 4, 6, 6), true)
	relu := NewReLU("relu")

	x := intoInput(t, 21, 2, 4, 6, 6)
	want := relu.Forward(bn.Forward(x.Clone(), false), false)
	buf := x.Clone()
	bn.evalInto(buf.Data(), buf.Data(), 2, 36)
	relu.ForwardInto(buf, buf, nil)
	wd, gd := want.Data(), buf.Data()
	for i := range wd {
		if wd[i] != gd[i] {
			t.Fatalf("in-place element %d = %v, want %v", i, gd[i], wd[i])
		}
	}
}

// TestEvalForwardDropsBackwardState is the regression for the serving-path
// memory leak: an eval-mode Forward must not keep the input (or any
// batch-statistics scratch) reachable from the layer.
func TestEvalForwardDropsBackwardState(t *testing.T) {
	rng := tensor.NewRNG(31)
	conv := NewConv2D("conv", 3, 4, 3, 1, 1, false, rng)
	dw := NewDepthwiseConv2D("dw", 3, 3, 1, 1, rng)
	bn := NewBatchNorm2D("bn", 3)
	dense := NewDense("fc", 12, 4, rng)

	x4 := intoInput(t, 32, 2, 3, 6, 6)
	x2 := intoInput(t, 33, 2, 12)

	// Train-mode forwards populate the caches...
	conv.Forward(x4, true)
	dw.Forward(x4, true)
	bn.Forward(x4, true)
	dense.Forward(x2, true)
	if conv.lastInput == nil || dw.lastInput == nil || bn.lastX == nil || dense.lastInput == nil {
		t.Fatal("train-mode forward did not cache backward state")
	}
	// ...and eval-mode forwards must clear them.
	conv.Forward(x4, false)
	dw.Forward(x4, false)
	bn.Forward(x4, false)
	dense.Forward(x2, false)
	if conv.lastInput != nil {
		t.Error("Conv2D eval forward retained lastInput")
	}
	if dw.lastInput != nil {
		t.Error("DepthwiseConv2D eval forward retained lastInput")
	}
	if bn.lastX != nil || bn.lastXHat != nil {
		t.Error("BatchNorm2D eval forward retained batch scratch")
	}
	if dense.lastInput != nil {
		t.Error("Dense eval forward retained lastInput")
	}
}

// TestConvBackwardAfterEvalPanics documents the sharpened contract: Backward
// requires a preceding training-mode Forward.
func TestConvBackwardAfterEvalPanics(t *testing.T) {
	rng := tensor.NewRNG(41)
	conv := NewConv2D("conv", 2, 3, 3, 1, 1, false, rng)
	x := intoInput(t, 42, 1, 2, 5, 5)
	g := tensor.New(conv.OutShape(x.Shape())...)
	conv.Forward(x, false)
	defer func() {
		if recover() == nil {
			t.Fatal("Backward after eval-mode Forward did not panic")
		}
	}()
	conv.Backward(g)
}

// TestConvBackwardScratchReuse verifies the hoisted per-worker backward
// scratch produces the same gradients as a fresh layer (and therefore that
// reuse across steps does not leak state between calls).
func TestConvBackwardScratchReuse(t *testing.T) {
	rng := tensor.NewRNG(51)
	conv := NewConv2D("conv", 3, 5, 3, 1, 1, true, rng)
	x := intoInput(t, 52, 4, 3, 7, 7)
	g := intoInput(t, 53, 4, 5, 7, 7)

	conv.Forward(x, true)
	dx1 := conv.Backward(g)
	wg1 := conv.W.Grad.Clone()
	bg1 := conv.B.Grad.Clone()

	// A second identical step through the now-warm scratch must reproduce
	// every gradient bit for bit: stale scratch contents must not leak in.
	conv.W.Grad.Zero()
	conv.B.Grad.Zero()
	conv.Forward(x, true)
	dx2 := conv.Backward(g)
	for i, v := range dx1.Data() {
		if dx2.Data()[i] != v {
			t.Fatalf("dx element %d changed across warm-scratch steps: %v vs %v", i, dx2.Data()[i], v)
		}
	}
	for i, v := range wg1.Data() {
		if conv.W.Grad.Data()[i] != v {
			t.Fatalf("W grad element %d = %v on warm scratch, want %v", i, conv.W.Grad.Data()[i], v)
		}
	}
	for i, v := range bg1.Data() {
		if conv.B.Grad.Data()[i] != v {
			t.Fatalf("B grad element %d = %v on warm scratch, want %v", i, conv.B.Grad.Data()[i], v)
		}
	}
}

// TestReLUForwardIntoSpecialValues pins the branch-free inference rectifier
// to the training Forward on every class of input: NaN of either sign and
// -0 come out +0, +Inf and denormals pass, in place or not.
func TestReLUForwardIntoSpecialValues(t *testing.T) {
	bits := math.Float32frombits
	vals := []float32{
		0, float32(math.Copysign(0, -1)), 3, -3, 1e-45, -1e-45, 1e-39, -1e-39,
		math.MaxFloat32, -math.MaxFloat32, float32(math.Inf(1)), float32(math.Inf(-1)),
		bits(0x7fc00000), bits(0xffc00000), bits(0x7f800001), bits(0xff800001),
	}
	x := tensor.FromData(vals, 1, 1, 4, 4)
	relu := NewReLU("relu")
	want := relu.Forward(x, true).Data()
	got := x.Clone()
	relu.ForwardInto(got, got, nil)
	for i, v := range got.Data() {
		if math.Float32bits(v) != math.Float32bits(want[i]) {
			t.Errorf("ReLU.ForwardInto(%v [%#x]) = %v [%#x], Forward gives %v",
				vals[i], math.Float32bits(vals[i]), v, math.Float32bits(v), want[i])
		}
	}
}

// TestConvForwardIntoBNMatchesSeparateLayers locks the fused conv epilogue to
// the three layers it stands for, bit for bit: with and without a bias, 3x3
// and pointwise, channel counts off the kernel's row block, both precisions,
// a single sample and a batch, and the depthwise convolution's form of it —
// and shows the batch-norm parameters are read at call time by changing them
// between two calls on one arena.
func TestConvForwardIntoBNMatchesSeparateLayers(t *testing.T) {
	rng := tensor.NewRNG(91)
	for _, tc := range []struct {
		name                      string
		inC, outC, k, stride, pad int
		bias, depthwise           bool
	}{
		{"k3", 3, 8, 3, 1, 1, false, false},
		{"k3-odd", 5, 11, 3, 2, 1, false, false},
		{"k3-bias", 4, 6, 3, 1, 1, true, false},
		{"pointwise", 6, 13, 1, 1, 0, false, false},
		{"dw", 6, 6, 3, 1, 1, false, true},
		{"dw-s2-odd", 11, 11, 3, 2, 1, false, true},
	} {
		for _, int8 := range []bool{false, true} {
			var conv interface {
				Layer
				inferLayer
				ForwardIntoBN(dst, x *tensor.Tensor, a *Arena, bn *BatchNorm2D, relu bool)
			}
			if tc.depthwise {
				dw := NewDepthwiseConv2D(tc.name, tc.inC, tc.k, tc.stride, tc.pad, rng)
				if int8 {
					q, s := quantizeRowsRef(dw.W.Value.Data(), tc.inC, tc.k*tc.k)
					if err := dw.SetInt8Weights(q, s); err != nil {
						t.Fatal(err)
					}
				}
				conv = dw
			} else {
				c := NewConv2D(tc.name, tc.inC, tc.outC, tc.k, tc.stride, tc.pad, tc.bias, rng)
				if tc.bias {
					rng.FillNormal(c.B.Value, 0, 0.5)
				}
				if int8 {
					q, s := quantizeRowsRef(c.W.Value.Data(), tc.outC, tc.inC*tc.k*tc.k)
					if err := c.SetInt8Weights(q, s); err != nil {
						t.Fatal(err)
					}
				}
				conv = c
			}
			bn := NewBatchNorm2D("bn", tc.outC)
			relu := NewReLU("relu")
			a := NewArena()
			for round, batch := range []int{1, 3, 1} {
				// Fresh statistics and affine terms every round: a fused path
				// that kept anything from the previous call would show.
				rng.FillNormal(bn.Gamma.Value, 0.2, 1)
				rng.FillNormal(bn.Beta.Value, 0, 1)
				rng.FillNormal(bn.RunMean, 0, 1)
				for i := range bn.RunVar.Data() {
					bn.RunVar.Data()[i] = float32(0.1 + 3.9*rng.Float64())
				}
				x := intoInput(t, uint64(92+round), batch, tc.inC, 9, 9)
				for _, act := range []bool{true, false} {
					want := tensor.New(conv.OutShape(x.Shape())...)
					conv.ForwardInto(want, x, a)
					bn.evalInto(want.Data(), want.Data(), want.Dim(0), want.Dim(2)*want.Dim(3))
					if act {
						relu.ForwardInto(want, want, a)
					}
					got := tensor.New(want.Shape()...)
					got.Fill(42)
					conv.ForwardIntoBN(got, x, a, bn, act)
					for i, w := range want.Data() {
						if g := got.Data()[i]; math.Float32bits(g) != math.Float32bits(w) {
							t.Fatalf("%s int8=%v batch %d relu=%v: element %d = %v fused, %v as separate layers",
								tc.name, int8, batch, act, i, g, w)
						}
					}
				}
			}
		}
	}
}
