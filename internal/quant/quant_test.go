package quant

import (
	"math"
	"testing"

	"tbnet/internal/profile"
	"tbnet/internal/tensor"
	"tbnet/internal/zoo"
)

func randX(n int, seed uint64) *tensor.Tensor {
	x := tensor.New(n, 3, 16, 16)
	tensor.NewRNG(seed).FillNormal(x, 0, 1)
	return x
}

func TestQuantizeRoundTripCloseVGG(t *testing.T) {
	m := zoo.BuildVGG(zoo.TinyVGGConfig(4), tensor.NewRNG(1))
	qm := Quantize(m)
	deq := qm.Dequantize()
	x := randX(2, 2)
	a := m.Forward(x.Clone(), false)
	b := deq.Forward(x.Clone(), false)
	for i := range a.Data() {
		diff := math.Abs(float64(a.Data()[i] - b.Data()[i]))
		scale := math.Max(1, math.Abs(float64(a.Data()[i])))
		if diff/scale > 0.15 {
			t.Fatalf("logit %d drifted too far: %v vs %v", i, a.Data()[i], b.Data()[i])
		}
	}
}

func TestQuantizeRoundTripCloseResNet(t *testing.T) {
	m := zoo.BuildResNet(zoo.TinyResNetConfig(4), true, tensor.NewRNG(3))
	qm := Quantize(m)
	deq := qm.Dequantize()
	x := randX(2, 4)
	a := m.Forward(x.Clone(), false)
	b := deq.Forward(x.Clone(), false)
	for i := range a.Data() {
		diff := math.Abs(float64(a.Data()[i] - b.Data()[i]))
		scale := math.Max(1, math.Abs(float64(a.Data()[i])))
		if diff/scale > 0.15 {
			t.Fatalf("logit %d drifted too far: %v vs %v", i, a.Data()[i], b.Data()[i])
		}
	}
}

func TestQuantizeDoesNotMutateInput(t *testing.T) {
	m := zoo.BuildVGG(zoo.TinyVGGConfig(4), tensor.NewRNG(5))
	before := m.Stages[0].(*zoo.ConvBlock).Conv.W.Value.Clone()
	Quantize(m)
	after := m.Stages[0].(*zoo.ConvBlock).Conv.W.Value
	for i := range before.Data() {
		if after.Data()[i] != before.Data()[i] {
			t.Fatal("Quantize mutated the source model")
		}
	}
}

func TestQuantizedFootprintMuchSmaller(t *testing.T) {
	m := zoo.BuildVGG(zoo.VGG18Config(10), tensor.NewRNG(6))
	fp32 := profile.Profile(m, []int{1, 3, 16, 16}).TotalParamBytes()
	q := Quantize(m).ParamBytes()
	ratio := float64(fp32) / float64(q)
	if ratio < 3.0 {
		t.Fatalf("quantization ratio %.2f, want ≥ 3x", ratio)
	}
}

func TestQuantValuesInRange(t *testing.T) {
	m := zoo.BuildVGG(zoo.TinyVGGConfig(4), tensor.NewRNG(7))
	qm := Quantize(m)
	for _, q := range qm.Convs {
		if len(q.Data) != q.OutC*q.Cols || len(q.Scales) != q.OutC {
			t.Fatalf("inconsistent quantized conv: %d data, %d scales", len(q.Data), len(q.Scales))
		}
		for _, s := range q.Scales {
			if s <= 0 {
				t.Fatalf("non-positive scale %v", s)
			}
		}
	}
}

func TestQuantZeroWeightLayer(t *testing.T) {
	// All-zero weights must survive (scale falls back to 1, values 0).
	m := zoo.BuildVGG(zoo.TinyVGGConfig(4), tensor.NewRNG(8))
	m.Stages[0].(*zoo.ConvBlock).Conv.W.Value.Zero()
	deq := Quantize(m).Dequantize()
	if tensor.MaxAbs(deq.Stages[0].(*zoo.ConvBlock).Conv.W.Value.Data()) != 0 {
		t.Fatal("zero weights corrupted by quantization")
	}
}

func TestQuantMaxErrorBound(t *testing.T) {
	// Per-row symmetric int8: |w - deq(w)| ≤ scale/2 = max|w|/254.
	m := zoo.BuildVGG(zoo.TinyVGGConfig(4), tensor.NewRNG(9))
	orig := m.Stages[1].(*zoo.ConvBlock).Conv.W.Value.Clone()
	deq := Quantize(m).Dequantize()
	got := deq.Stages[1].(*zoo.ConvBlock).Conv.W.Value
	cols := orig.Dim(1)
	for r := 0; r < orig.Dim(0); r++ {
		var maxAbs float64
		for c := 0; c < cols; c++ {
			if a := math.Abs(float64(orig.Data()[r*cols+c])); a > maxAbs {
				maxAbs = a
			}
		}
		bound := maxAbs/254 + 1e-7
		for c := 0; c < cols; c++ {
			if err := math.Abs(float64(orig.Data()[r*cols+c] - got.Data()[r*cols+c])); err > bound {
				t.Fatalf("quant error %v exceeds bound %v at (%d,%d)", err, bound, r, c)
			}
		}
	}
}

func TestQuantizeRoundTripCloseMobileNet(t *testing.T) {
	m := zoo.BuildMobileNet(zoo.MobileNetSConfig(4), tensor.NewRNG(40))
	deq := Quantize(m).Dequantize()
	x := randX(2, 41)
	a := m.Forward(x.Clone(), false)
	b := deq.Forward(x.Clone(), false)
	for i := range a.Data() {
		diff := math.Abs(float64(a.Data()[i] - b.Data()[i]))
		scale := math.Max(1, math.Abs(float64(a.Data()[i])))
		if diff/scale > 0.15 {
			t.Fatalf("logit %d drifted too far: %v vs %v", i, a.Data()[i], b.Data()[i])
		}
	}
}
