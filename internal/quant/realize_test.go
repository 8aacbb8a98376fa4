package quant

import (
	"math"
	"reflect"
	"testing"

	"tbnet/internal/tensor"
	"tbnet/internal/zoo"
)

// TestQuantAllZeroRowScaleIsOne locks the all-zero-row guard directly: a row
// with no signal must quantize with scale 1 (not 0, which would poison every
// downstream requantization with NaN/Inf) and all-zero codes.
func TestQuantAllZeroRowScaleIsOne(t *testing.T) {
	w := tensor.New(3, 8)
	tensor.NewRNG(11).FillNormal(w, 0, 1)
	for i := 0; i < 8; i++ {
		w.Data()[1*8+i] = 0 // middle row all zero
	}
	data, scales := quantizeRows(w)
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

func assertRealizedClose(t *testing.T, m *zoo.Model, seed uint64) {
	t.Helper()
	qm := Quantize(m)
	rm, err := qm.Realize()
	if err != nil {
		t.Fatalf("Realize: %v", err)
	}
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

func TestRealizeVGGRunsInt8(t *testing.T) {
	m := zoo.BuildVGG(zoo.TinyVGGConfig(4), tensor.NewRNG(21))
	rm, err := Quantize(m).Realize()
	if err != nil {
		t.Fatalf("Realize: %v", err)
	}
	for i, s := range rm.Stages {
		if !s.(*zoo.ConvBlock).Conv.Int8() {
			t.Fatalf("stage %d conv not armed for int8", i)
		}
	}
	if !armed(rm.Head.FC) {
		t.Fatal("head not armed for int8")
	}
	assertRealizedClose(t, m, 22)
}

func TestRealizeResNetRunsInt8(t *testing.T) {
	m := zoo.BuildResNet(zoo.TinyResNetConfig(4), true, tensor.NewRNG(23))
	rm, err := Quantize(m).Realize()
	if err != nil {
		t.Fatalf("Realize: %v", err)
	}
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
	assertRealizedClose(t, m, 24)
}

func TestRealizeMobileNetRunsInt8(t *testing.T) {
	m := zoo.BuildMobileNet(zoo.MobileNetSConfig(4), tensor.NewRNG(25))
	rm, err := Quantize(m).Realize()
	if err != nil {
		t.Fatalf("Realize: %v", err)
	}
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
	assertRealizedClose(t, m, 26)
}

func TestRealizeRejectsMismatchedRecord(t *testing.T) {
	m := zoo.BuildVGG(zoo.TinyVGGConfig(4), tensor.NewRNG(27))
	qm := Quantize(m)

	short := &QuantizedModel{Skeleton: qm.Skeleton, Convs: qm.Convs[:1], Denses: qm.Denses}
	if _, err := short.Realize(); err == nil {
		t.Fatal("Realize accepted a record with missing convolutions")
	}

	extra := &QuantizedModel{Skeleton: qm.Skeleton,
		Convs: append(append([]QuantizedConv(nil), qm.Convs...), qm.Convs[0]), Denses: qm.Denses}
	if _, err := extra.Realize(); err == nil {
		t.Fatal("Realize accepted a record with surplus convolutions")
	}

	badDense := &QuantizedModel{Skeleton: qm.Skeleton, Convs: qm.Convs,
		Denses: []QuantizedDense{{In: 1, Out: 1, Data: []int8{0}, Scales: []float32{1}, Bias: []float32{0}}}}
	if _, err := badDense.Realize(); err == nil {
		t.Fatal("Realize accepted a mismatched head")
	}
}

// armed reports whether a realized layer holds int8 weights: the packed
// weights its int8 path runs from, read by reflection, since no product path
// asks a depthwise or dense layer for them.
func armed(layer any) bool {
	return !reflect.ValueOf(layer).Elem().FieldByName("qw").IsNil()
}
