// Package quant implements post-training int8 weight quantization for the
// secure branch — one of the deployment optimizations the paper's Sec. 5.3
// anticipates. Weights are quantized symmetrically per output channel
// (scale = max|w| / 127); batch-norm parameters and biases stay float32
// (they are a negligible fraction of the footprint). Quantization shrinks
// the TEE-resident parameter bytes ~4× at a small accuracy cost, which the
// ablation experiment quantifies.
package quant

import (
	"tbnet/internal/nn"
	"tbnet/internal/tensor"
	"tbnet/internal/zoo"
)

// QuantizedConv is one convolution's int8 weights with per-output scales.
type QuantizedConv struct {
	// OutC and Cols are the weight matrix dimensions [OutC, Cols].
	OutC, Cols int
	// Data is the row-major [OutC, Cols] int8 weight matrix.
	Data []int8
	// Scales holds one symmetric scale per output channel.
	Scales []float32
	// Bias is the float32 bias, nil when absent (never quantized).
	Bias []float32
}

// QuantizedDense is a dense layer's int8 weights with per-column scales.
type QuantizedDense struct {
	// In and Out are the layer's input and output widths.
	In, Out int
	// Data is the row-major [Out, In] int8 weight matrix (transposed
	// relative to the float32 [In, Out] storage so each output's weights
	// form one contiguous dot-product row).
	Data []int8
	// Scales holds one symmetric scale per output column.
	Scales []float32
	// Bias is the float32 bias (never quantized).
	Bias []float32
}

// QuantizedModel is a storage representation of a staged model with all
// convolution and dense weights quantized; everything else (BN parameters,
// architecture) is carried verbatim via a weight-stripped skeleton.
type QuantizedModel struct {
	// Skeleton is the original model with conv/dense weights zeroed; it
	// carries the architecture, BN parameters, and running statistics.
	Skeleton *zoo.Model
	Convs    []QuantizedConv  // in stage traversal order
	Denses   []QuantizedDense // the head (and any future dense layers)
}

// quantizeRows quantizes a [rows, cols] matrix with one scale per row.
func quantizeRows(w *tensor.Tensor) ([]int8, []float32) {
	rows, cols := w.Dim(0), w.Dim(1)
	data := make([]int8, rows*cols)
	scales := make([]float32, rows)
	for r := 0; r < rows; r++ {
		row := w.Data()[r*cols : (r+1)*cols]
		var maxAbs float32
		for _, v := range row {
			a := v
			if a < 0 {
				a = -a
			}
			if a > maxAbs {
				maxAbs = a
			}
		}
		scale := maxAbs / 127
		if scale == 0 {
			scale = 1
		}
		scales[r] = scale
		for i, v := range row {
			q := v / scale
			switch {
			case q > 127:
				q = 127
			case q < -127:
				q = -127
			}
			if q >= 0 {
				data[r*cols+i] = int8(q + 0.5)
			} else {
				data[r*cols+i] = int8(q - 0.5)
			}
		}
	}
	return data, scales
}

// dequantizeRows reverses quantizeRows into dst.
func dequantizeRows(data []int8, scales []float32, dst *tensor.Tensor) {
	rows, cols := dst.Dim(0), dst.Dim(1)
	for r := 0; r < rows; r++ {
		s := scales[r]
		for i := 0; i < cols; i++ {
			dst.Data()[r*cols+i] = float32(data[r*cols+i]) * s
		}
	}
}

func quantizeConv(c nn.Weighted) QuantizedConv {
	w := c.Weight().Value
	data, scales := quantizeRows(w)
	q := QuantizedConv{OutC: w.Dim(0), Cols: w.Dim(1), Data: data, Scales: scales}
	if b := c.Bias(); b != nil {
		q.Bias = append([]float32(nil), b.Value.Data()...)
	}
	return q
}

// Quantize converts a model into its quantized storage form. The input model
// is not modified.
func Quantize(m *zoo.Model) *QuantizedModel {
	qm := &QuantizedModel{Skeleton: m.Clone()}
	for _, s := range qm.Skeleton.Stages {
		for _, c := range s.Convs() {
			qm.Convs = append(qm.Convs, quantizeConv(c))
			c.Weight().Value.Zero()
		}
	}
	fc := qm.Skeleton.Head.FC
	// Dense weights are [In, Out]; quantize per output column by transposing.
	wt := tensor.Transpose(fc.W.Value)
	data, scales := quantizeRows(wt)
	qm.Denses = append(qm.Denses, QuantizedDense{
		In: fc.In, Out: fc.Out, Data: data, Scales: scales,
		Bias: append([]float32(nil), fc.B.Value.Data()...),
	})
	fc.W.Value.Zero()
	return qm
}

// Dequantize reconstructs a float32 model for execution.
func (qm *QuantizedModel) Dequantize() *zoo.Model {
	out := qm.Skeleton.Clone()
	ci := 0
	for _, s := range out.Stages {
		for _, c := range s.Convs() {
			q := qm.Convs[ci]
			ci++
			dequantizeRows(q.Data, q.Scales, c.Weight().Value)
			if b := c.Bias(); b != nil && q.Bias != nil {
				copy(b.Value.Data(), q.Bias)
			}
		}
	}
	qd := qm.Denses[0]
	wt := tensor.New(qd.Out, qd.In)
	dequantizeRows(qd.Data, qd.Scales, wt)
	w := tensor.Transpose(wt)
	copy(out.Head.FC.W.Value.Data(), w.Data())
	copy(out.Head.FC.B.Value.Data(), qd.Bias)
	return out
}

// ParamBytes returns the quantized parameter footprint: int8 weights, float32
// scales and biases, float32 BN parameters from the skeleton.
func (qm *QuantizedModel) ParamBytes() int64 {
	var n int64
	for _, q := range qm.Convs {
		n += int64(len(q.Data)) // int8 weights
		n += int64(len(q.Scales)) * 4
		n += int64(len(q.Bias)) * 4
	}
	for _, q := range qm.Denses {
		n += int64(len(q.Data))
		n += int64(len(q.Scales)) * 4
		n += int64(len(q.Bias)) * 4
	}
	// BN parameters (γ, β, running stats) remain float32 in the skeleton.
	for _, s := range qm.Skeleton.Stages {
		for _, bn := range s.Norms() {
			n += int64(bn.C) * 4 * 4
		}
	}
	return n
}
