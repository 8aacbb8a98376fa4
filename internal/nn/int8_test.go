package nn

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"tbnet/internal/tensor"
)

// quantizeRowsRef mirrors the offline weight quantizer (internal/quant):
// symmetric per-row scales, round half away from zero. Duplicated here
// because nn cannot import quant (quant imports nn).
func quantizeRowsRef(w []float32, rows, cols int) ([]int8, []float32) {
	data := make([]int8, rows*cols)
	scales := make([]float32, rows)
	for r := 0; r < rows; r++ {
		row := w[r*cols : (r+1)*cols]
		scales[r] = tensor.QuantScale(tensor.MaxAbs(row))
		tensor.QuantizeI8(row, scales[r], data[r*cols:(r+1)*cols])
	}
	return data, scales
}

// quantErrorBound computes the per-output-element analytic error bound of
// the int8 path: |Σ w·x − (Σ ŵ·x̂)·s_w·s_x| ≤ Σ(|Δw|·|x| + |ŵ·s_w|·|Δx|)
// where Δw and Δx are the exact per-element quantization residuals.
func quantErrorBound(wRow []float32, qRow []int8, sw float32, x []float32, qx []int8, sx float32) float64 {
	var bound float64
	for j := range wRow {
		dw := math.Abs(float64(wRow[j]) - float64(qRow[j])*float64(sw))
		dx := math.Abs(float64(x[j]) - float64(qx[j])*float64(sx))
		bound += dw*math.Abs(float64(x[j])) + math.Abs(float64(qRow[j])*float64(sw))*dx
	}
	return bound
}

// TestConvInt8WithinQuantErrorBound locks the tentpole accuracy contract:
// every output of the int8 convolution stays within the per-layer analytic
// quantization error bound of the float32 reference.
func TestConvInt8WithinQuantErrorBound(t *testing.T) {
	rng := tensor.NewRNG(21)
	for _, batch := range []int{1, 3} {
		conv := NewConv2D("c", 3, 8, 3, 1, 1, true, rng)
		rng.FillNormal(conv.B.Value, 0, 0.1)
		x := tensor.New(batch, 3, 9, 9)
		rng.FillNormal(x, 0, 1)
		want := conv.Forward(x, false)

		wd := conv.W.Value.Data() // arming drops the float32 weights
		qdata, qscales := quantizeRowsRef(wd, conv.OutC, conv.InC*9)
		if err := conv.SetInt8Weights(qdata, qscales); err != nil {
			t.Fatal(err)
		}
		got := tensor.New(want.Shape()...)
		conv.ForwardInto(got, x, NewArena())

		// Rebuild the quantized operands the layer used internally, to
		// evaluate the bound per output element.
		colRows := conv.InC * 9
		oh, ow := 9, 9
		hw := oh * ow
		sampleIn := 3 * 9 * 9
		for i := 0; i < batch; i++ {
			sample := x.Data()[i*sampleIn : (i+1)*sampleIn]
			sx := tensor.QuantScale(tensor.MaxAbs(sample))
			qin := make([]int8, sampleIn)
			tensor.QuantizeI8(sample, sx, qin)
			colsF := make([]float32, colRows*hw)
			tensor.Im2Col(sample, 3, 9, 9, 3, 3, 1, 1, colsF)
			rows := make([]int8, hw*colRows)
			tensor.Im2RowI8(qin, 3, 9, 9, 3, 3, 1, 1, rows)
			for ch := 0; ch < conv.OutC; ch++ {
				wRow := wd[ch*colRows : (ch+1)*colRows]
				qRow := qdata[ch*colRows : (ch+1)*colRows]
				for p := 0; p < hw; p++ {
					patchF := make([]float32, colRows)
					for k := 0; k < colRows; k++ {
						patchF[k] = colsF[k*hw+p]
					}
					patchQ := rows[p*colRows : (p+1)*colRows]
					bound := quantErrorBound(wRow, qRow, qscales[ch], patchF, patchQ, sx)
					idx := (i*conv.OutC+ch)*hw + p
					diff := math.Abs(float64(got.Data()[idx]) - float64(want.Data()[idx]))
					if diff > bound+1e-4 {
						t.Fatalf("batch %d out[%d,%d,%d]: |%v - %v| = %v exceeds bound %v",
							batch, i, ch, p, got.Data()[idx], want.Data()[idx], diff, bound)
					}
				}
			}
		}
	}
}

// TestConvInt8BitIdenticalToChannelMajorReference locks the HWC re-plumb to
// the path it replaced: for every geometry class (3×3, pointwise, strided,
// 5×5 with wide padding, an image narrower than the kernel, a 3-channel first
// layer) the layer's output equals, bit for bit, a reference built from the
// retained channel-major kernels — QuantizeI8 + Im2RowI8 + GemmI8PackedSerial on
// the unpermuted artifact weights — at batch 1 (the parallel GEMM) and batch
// 8 (one serial GEMM per worker). The arm-time permutation is therefore
// unobservable, and the artifact's weight slice is left untouched.
func TestConvInt8BitIdenticalToChannelMajorReference(t *testing.T) {
	rng := tensor.NewRNG(28)
	for _, g := range []struct {
		inC, outC, h, w, k, stride, pad int
		bias                            bool
	}{
		{16, 32, 9, 7, 3, 1, 1, false},
		{16, 32, 9, 7, 3, 1, 1, true},
		{32, 19, 6, 5, 1, 1, 0, true}, // pointwise: no lowering at all
		{8, 16, 11, 8, 3, 2, 1, false},
		{3, 8, 10, 12, 5, 1, 2, true},
		{4, 8, 2, 9, 5, 2, 2, false}, // shorter than the kernel
		{5, 6, 7, 7, 1, 2, 0, false}, // 1×1 but strided: still lowered
	} {
		conv := NewConv2D("c", g.inC, g.outC, g.k, g.stride, g.pad, g.bias, rng)
		if g.bias {
			rng.FillNormal(conv.B.Value, 0, 0.1)
		}
		colRows := g.inC * g.k * g.k
		qdata, qscales := quantizeRowsRef(conv.W.Value.Data(), g.outC, colRows)
		artifact := append([]int8(nil), qdata...)
		if err := conv.SetInt8Weights(qdata, qscales); err != nil {
			t.Fatal(err)
		}
		for i := range qdata {
			if qdata[i] != artifact[i] {
				t.Fatalf("%+v: SetInt8Weights rewrote the caller's weights at %d", g, i)
			}
		}
		for _, batch := range []int{1, 8} {
			x := tensor.New(batch, g.inC, g.h, g.w)
			rng.FillNormal(x, 0, 1)
			got := tensor.New(conv.OutShape(x.Shape())...)
			for i := range got.Data() {
				got.Data()[i] = float32(math.NaN())
			}
			conv.ForwardInto(got, x, NewArena())

			oh, ow := got.Dim(2), got.Dim(3)
			hw, sampleIn := oh*ow, g.inC*g.h*g.w
			qin := make([]int8, sampleIn)
			rows := make([]int8, colRows*hw)
			acc := make([]int32, g.outC*hw)
			for i := 0; i < batch; i++ {
				sample := x.Data()[i*sampleIn : (i+1)*sampleIn]
				sx := tensor.QuantScale(tensor.MaxAbs(sample))
				tensor.QuantizeI8(sample, sx, qin)
				tensor.Im2RowI8(qin, g.inC, g.h, g.w, g.k, g.k, g.stride, g.pad, rows)
				tensor.GemmI8PackedSerial(acc, tensor.PackI8Weights(qdata, g.outC, colRows, 1), rows, hw)
				for ch := 0; ch < g.outC; ch++ {
					f := qscales[ch] * sx
					var b float32
					if g.bias {
						b = conv.B.Value.Data()[ch]
					}
					for p := 0; p < hw; p++ {
						want := float32(acc[ch*hw+p])*f + b
						if o := got.Data()[(i*g.outC+ch)*hw+p]; math.Float32bits(o) != math.Float32bits(want) {
							t.Fatalf("%+v batch %d: out[%d,%d,%d] = %v, want %v", g, batch, i, ch, p, o, want)
						}
					}
				}
			}
		}
	}
}

// TestDenseInt8WithinQuantErrorBound is the dense-layer twin of the conv
// bound test (per-row activation scales, transposed weight layout).
func TestDenseInt8WithinQuantErrorBound(t *testing.T) {
	rng := tensor.NewRNG(22)
	d := NewDense("fc", 24, 7, rng)
	rng.FillNormal(d.B.Value, 0, 0.1)
	x := tensor.New(3, 24)
	rng.FillNormal(x, 0, 1)
	want := d.Forward(x, false)

	wt := tensor.Transpose(d.W.Value) // [Out, In]
	qdata, qscales := quantizeRowsRef(wt.Data(), d.Out, d.In)
	if err := d.SetInt8Weights(qdata, qscales); err != nil {
		t.Fatal(err)
	}
	got := tensor.New(3, 7)
	d.ForwardInto(got, x, NewArena())

	for i := 0; i < 3; i++ {
		row := x.Data()[i*d.In : (i+1)*d.In]
		sx := tensor.QuantScale(tensor.MaxAbs(row))
		qx := make([]int8, d.In)
		tensor.QuantizeI8(row, sx, qx)
		for o := 0; o < d.Out; o++ {
			wRow := wt.Data()[o*d.In : (o+1)*d.In]
			qRow := qdata[o*d.In : (o+1)*d.In]
			bound := quantErrorBound(wRow, qRow, qscales[o], row, qx, sx)
			diff := math.Abs(float64(got.Data()[i*d.Out+o]) - float64(want.Data()[i*d.Out+o]))
			if diff > bound+1e-4 {
				t.Fatalf("out[%d,%d]: |%v - %v| = %v exceeds bound %v",
					i, o, got.Data()[i*d.Out+o], want.Data()[i*d.Out+o], diff, bound)
			}
		}
	}
}

// TestDepthwiseInt8WithinQuantErrorBound covers the scalar int8 depthwise
// path with the same analytic bound, padding included.
func TestDepthwiseInt8WithinQuantErrorBound(t *testing.T) {
	rng := tensor.NewRNG(23)
	d := NewDepthwiseConv2D("dw", 4, 3, 2, 1, rng)
	x := tensor.New(2, 4, 7, 7)
	rng.FillNormal(x, 0, 1)
	want := d.Forward(x, false)

	wd := d.W.Value.Data() // arming drops the float32 filters
	qdata, qscales := quantizeRowsRef(wd, d.C, 9)
	if err := d.SetInt8Weights(qdata, qscales); err != nil {
		t.Fatal(err)
	}
	got := tensor.New(want.Shape()...)
	d.ForwardInto(got, x, NewArena())

	oh := tensor.ConvOutDim(7, 3, 2, 1)
	ow := oh
	sampleIn := 4 * 7 * 7
	for i := 0; i < 2; i++ {
		sample := x.Data()[i*sampleIn : (i+1)*sampleIn]
		sx := tensor.QuantScale(tensor.MaxAbs(sample))
		qin := make([]int8, sampleIn)
		tensor.QuantizeI8(sample, sx, qin)
		for ch := 0; ch < 4; ch++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					// Gather this window's taps (in-bounds only) to evaluate
					// the bound.
					var wTaps, xTaps []float32
					var qwTaps, qxTaps []int8
					for ky := 0; ky < 3; ky++ {
						iy := oy*2 + ky - 1
						if iy < 0 || iy >= 7 {
							continue
						}
						for kx := 0; kx < 3; kx++ {
							ix := ox*2 + kx - 1
							if ix < 0 || ix >= 7 {
								continue
							}
							wTaps = append(wTaps, wd[ch*9+ky*3+kx])
							qwTaps = append(qwTaps, qdata[ch*9+ky*3+kx])
							xTaps = append(xTaps, sample[ch*49+iy*7+ix])
							qxTaps = append(qxTaps, qin[ch*49+iy*7+ix])
						}
					}
					bound := quantErrorBound(wTaps, qwTaps, qscales[ch], xTaps, qxTaps, sx)
					idx := ((i*4+ch)*oh+oy)*ow + ox
					diff := math.Abs(float64(got.Data()[idx]) - float64(want.Data()[idx]))
					if diff > bound+1e-4 {
						t.Fatalf("out[%d,%d,%d,%d]: diff %v exceeds bound %v", i, ch, oy, ox, diff, bound)
					}
				}
			}
		}
	}
}

// TestInt8CloneSharesQuantizedWeights: replicas serve int8 without
// re-quantizing — CloneLayer must carry the armed weights across.
func TestInt8CloneSharesQuantizedWeights(t *testing.T) {
	rng := tensor.NewRNG(24)
	conv := NewConv2D("c", 2, 4, 3, 1, 1, false, rng)
	qdata, qscales := quantizeRowsRef(conv.W.Value.Data(), 4, 2*9)
	if err := conv.SetInt8Weights(qdata, qscales); err != nil {
		t.Fatal(err)
	}
	clone := conv.CloneLayer().(*Conv2D)
	if !clone.Int8() {
		t.Fatal("clone lost the int8 arming")
	}
	// The layer holds one weight layout — the (ky, kx, channel) permutation,
	// packed for the kernel — and replicas share that one packed matrix.
	if clone.qw != conv.qw || &clone.qscale[0] != &conv.qscale[0] {
		t.Fatal("clone copied the packed int8 weights instead of sharing them")
	}
	perm := make([]int8, len(qdata))
	for o := 0; o < 4; o++ {
		for ch := 0; ch < 2; ch++ {
			for tap := 0; tap < 9; tap++ {
				perm[o*18+tap*2+ch] = qdata[o*18+ch*9+tap]
			}
		}
	}
	if !reflect.DeepEqual(conv.qw, tensor.PackI8Weights(perm, 4, 18, 1)) {
		t.Fatal("the packed weights are not the artifact's (ch, tap) rows in (tap, ch) order")
	}
	x := tensor.New(1, 2, 5, 5)
	rng.FillNormal(x, 0, 1)
	a, b := tensor.New(1, 4, 5, 5), tensor.New(1, 4, 5, 5)
	conv.ForwardInto(a, x, NewArena())
	clone.ForwardInto(b, x, NewArena())
	for i := range a.Data() {
		if a.Data()[i] != b.Data()[i] {
			t.Fatalf("clone output differs at %d", i)
		}
	}
}

// TestSetInt8WeightsRejectsBadShapes: mis-sized quantized payloads must be
// refused, not silently attached.
func TestSetInt8WeightsRejectsBadShapes(t *testing.T) {
	rng := tensor.NewRNG(25)
	conv := NewConv2D("c", 2, 4, 3, 1, 1, false, rng)
	if err := conv.SetInt8Weights(make([]int8, 7), make([]float32, 4)); err == nil {
		t.Fatal("conv accepted mis-sized int8 weights")
	}
	d := NewDense("fc", 3, 2, rng)
	if err := d.SetInt8Weights(make([]int8, 6), make([]float32, 3)); err == nil {
		t.Fatal("dense accepted mis-sized scales")
	}
	dw := NewDepthwiseConv2D("dw", 2, 3, 1, 1, rng)
	if err := dw.SetInt8Weights(make([]int8, 17), make([]float32, 2)); err == nil {
		t.Fatal("depthwise accepted mis-sized int8 weights")
	}
}

// TestPruneRefusesInt8Layer: an int8 layer holds no float32 weights and its
// packed form cannot be cut, so surgery on it must fail loudly instead of
// leaving the layer computing with stale int8 data.
func TestPruneRefusesInt8Layer(t *testing.T) {
	rng := tensor.NewRNG(26)
	for name, prune := range map[string]func(*Conv2D){
		"output": func(c *Conv2D) { c.PruneOutput([]int{0, 2}) },
		"input":  func(c *Conv2D) { c.PruneInput([]int{1}) },
	} {
		conv := NewConv2D("c", 2, 4, 3, 1, 1, false, rng)
		qdata, qscales := quantizeRowsRef(conv.W.Value.Data(), 4, 2*9)
		if err := conv.SetInt8Weights(qdata, qscales); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "int8 layer") {
					t.Fatalf("prune %s of an int8 layer: recovered %v, want the int8 surgery panic", name, r)
				}
			}()
			prune(conv)
		}()
		if !conv.Int8() || conv.InC != 2 || conv.OutC != 4 {
			t.Fatalf("prune %s changed the refused layer", name)
		}
	}
}

// TestConvInt8SteadyStateAllocs is the allocation gate: with a warm arena,
// the int8 conv path must allocate no more than the float32 path, and the
// single-sample path — which never touches the parallelFor dispatch closure
// both precisions pay for batched input — must allocate nothing at all.
func TestConvInt8SteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs AllocsPerRun")
	}
	rng := tensor.NewRNG(27)
	// 3×3 (permuted weights, run-copy lowering), strided, and pointwise (no
	// lowering, artifact slice shared) — the three shapes of the int8 path.
	for _, g := range []struct{ k, stride, pad int }{{3, 1, 1}, {3, 2, 1}, {1, 1, 0}} {
		convF := NewConv2D("f", 3, 8, g.k, g.stride, g.pad, false, rng)
		convQ := convF.CloneLayer().(*Conv2D)
		qdata, qscales := quantizeRowsRef(convQ.W.Value.Data(), 8, 3*g.k*g.k)
		if err := convQ.SetInt8Weights(qdata, qscales); err != nil {
			t.Fatal(err)
		}
		for _, batch := range []int{1, 4} {
			x := tensor.New(batch, 3, 12, 12)
			rng.FillNormal(x, 0, 1)
			dst := tensor.New(convF.OutShape(x.Shape())...)
			aF, aQ := NewArena(), NewArena()
			convF.ForwardInto(dst, x, aF) // warm both arenas
			convQ.ForwardInto(dst, x, aQ)
			f32Allocs := testing.AllocsPerRun(20, func() { convF.ForwardInto(dst, x, aF) })
			i8Allocs := testing.AllocsPerRun(20, func() { convQ.ForwardInto(dst, x, aQ) })
			if i8Allocs > f32Allocs {
				t.Fatalf("k%d s%d batch %d: int8 path allocates %v/run, float32 %v/run", g.k, g.stride, batch, i8Allocs, f32Allocs)
			}
			if batch == 1 && i8Allocs != 0 {
				t.Fatalf("k%d s%d: single-sample int8 steady state allocates %v/run, want 0", g.k, g.stride, i8Allocs)
			}
		}
	}
}
