package quant

import (
	"math"
	"reflect"
	"runtime"
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
	deq := Dequantize(Quantize(m))
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
	deq := Dequantize(Quantize(m))
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
	q := ParamBytes(Quantize(m))
	ratio := float64(fp32) / float64(q)
	if ratio < 3.0 {
		t.Fatalf("quantization ratio %.2f, want ≥ 3x", ratio)
	}
}

func TestQuantValuesInRange(t *testing.T) {
	m := zoo.BuildVGG(zoo.TinyVGGConfig(4), tensor.NewRNG(7))
	convs, _ := Records(Quantize(m))
	for _, q := range convs {
		if len(q.Data) != q.Rows*q.Cols || len(q.Scales) != q.Rows {
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
	deq := Dequantize(Quantize(m))
	if tensor.MaxAbs(deq.Stages[0].(*zoo.ConvBlock).Conv.W.Value.Data()) != 0 {
		t.Fatal("zero weights corrupted by quantization")
	}
}

func TestQuantMaxErrorBound(t *testing.T) {
	// Per-row symmetric int8: |w - deq(w)| ≤ scale/2 = max|w|/254.
	m := zoo.BuildVGG(zoo.TinyVGGConfig(4), tensor.NewRNG(9))
	orig := m.Stages[1].(*zoo.ConvBlock).Conv.W.Value.Clone()
	deq := Dequantize(Quantize(m))
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
	deq := Dequantize(Quantize(m))
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

// TestQuantAllZeroRowScaleIsOne locks the all-zero-row guard directly: a row
// with no signal must quantize with scale 1 (not 0, which would poison every
// downstream requantization with NaN/Inf) and all-zero codes.
func TestQuantAllZeroRowScaleIsOne(t *testing.T) {
	w := tensor.New(3, 8)
	tensor.NewRNG(11).FillNormal(w, 0, 1)
	for i := 0; i < 8; i++ {
		w.Data()[1*8+i] = 0 // middle row all zero
	}
	q := quantizeRows(w, nil)
	data, scales := q.Data, q.Scales
	if scales[1] != 1 {
		t.Fatalf("all-zero row quantized with scale %v, want exactly 1", scales[1])
	}
	for i := 0; i < 8; i++ {
		if data[1*8+i] != 0 {
			t.Fatalf("all-zero row produced code %d at col %d", data[8+i], i)
		}
	}
	if scales[0] == 1 && scales[2] == 1 {
		t.Fatal("random rows both hit scale 1; test is not exercising the guard")
	}
}

func assertArmedClose(t *testing.T, m *zoo.Model, seed uint64) {
	t.Helper()
	rm := Quantize(m)
	x := randX(2, seed)
	a := m.Forward(x.Clone(), false)
	b := rm.Forward(x.Clone(), false)
	// Int8 execution adds dynamic activation quantization on top of the
	// weight quantization the Dequantize round-trip tests bound, so the
	// tolerance here is looser.
	for i := range a.Data() {
		diff := math.Abs(float64(a.Data()[i] - b.Data()[i]))
		scale := math.Max(1, math.Abs(float64(a.Data()[i])))
		if diff/scale > 0.25 {
			t.Fatalf("logit %d drifted too far under int8 execution: %v vs %v",
				i, a.Data()[i], b.Data()[i])
		}
	}
}

func TestQuantizeVGGRunsInt8(t *testing.T) {
	m := zoo.BuildVGG(zoo.TinyVGGConfig(4), tensor.NewRNG(21))
	rm := Quantize(m)
	for i, s := range rm.Stages {
		if !s.(*zoo.ConvBlock).Conv.Int8() {
			t.Fatalf("stage %d conv not armed for int8", i)
		}
	}
	if !armed(rm.Head.FC) {
		t.Fatal("head not armed for int8")
	}
	assertArmedClose(t, m, 22)
}

func TestQuantizeResNetRunsInt8(t *testing.T) {
	m := zoo.BuildResNet(zoo.TinyResNetConfig(4), true, tensor.NewRNG(23))
	rm := Quantize(m)
	for i, s := range rm.Stages {
		switch b := s.(type) {
		case *zoo.ConvBlock: // stem
			if !b.Conv.Int8() {
				t.Fatalf("stem stage %d not armed for int8", i)
			}
		case *zoo.ResBlock:
			if !b.Conv1.Int8() || !b.Conv2.Int8() {
				t.Fatalf("res block %d convs not armed for int8", i)
			}
			if b.Down != nil && !b.Down.Int8() {
				t.Fatalf("res block %d downsample not armed for int8", i)
			}
		}
	}
	assertArmedClose(t, m, 24)
}

func TestQuantizeMobileNetRunsInt8(t *testing.T) {
	m := zoo.BuildMobileNet(zoo.MobileNetSConfig(4), tensor.NewRNG(25))
	rm := Quantize(m)
	for i, s := range rm.Stages {
		switch b := s.(type) {
		case *zoo.ConvBlock: // stem
			if !b.Conv.Int8() {
				t.Fatalf("stem stage %d not armed for int8", i)
			}
		case *zoo.DWBlock:
			if !armed(b.DW) || !b.PW.Int8() {
				t.Fatalf("dw block %d not armed for int8", i)
			}
		}
	}
	assertArmedClose(t, m, 26)
}

// armed reports whether an armed layer holds int8 weights: the packed
// weights its int8 path runs from, read by reflection, since no product path
// asks a depthwise or dense layer for them.
func armed(layer any) bool {
	return !reflect.ValueOf(layer).Elem().FieldByName("qw").IsNil()
}

// TestQuantizeCopiesNoFloat32Weights: Quantize reads the source's float32
// weights once, into the records, and arms a copy made without them
// (nn.CloneBare). What it allocates — int8 records and their packed form,
// scales, biases, batch norms — stays under what a deep Clone of the source
// allocates, which it would exceed if it copied the float32 weights too.
func TestQuantizeCopiesNoFloat32Weights(t *testing.T) {
	for _, m := range []*zoo.Model{
		zoo.BuildVGG(zoo.VGG18Config(10), tensor.NewRNG(41)),
		zoo.BuildResNet(zoo.ResNet20Config(10), true, tensor.NewRNG(42)),
		zoo.BuildMobileNet(zoo.MobileNetSConfig(10), tensor.NewRNG(43)),
	} {
		clone := allocBytes(func() { runtime.KeepAlive(m.Clone()) })
		got := allocBytes(func() { runtime.KeepAlive(Quantize(m)) })
		t.Logf("%s: Quantize allocates %d bytes, Clone %d", m.Name, got, clone)
		if got >= clone {
			t.Errorf("%s: Quantize allocates %d bytes, not under the %d of a Clone", m.Name, got, clone)
		}
	}
}

// allocBytes returns the heap bytes fn allocates.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
