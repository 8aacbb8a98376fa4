// Package quant implements post-training int8 weight quantization for the
// secure branch — one of the deployment optimizations the paper's Sec. 5.3
// anticipates. Weights are quantized symmetrically per output channel
// (scale = max|w| / 127); batch-norm parameters and biases stay float32
// (they are a negligible fraction of the footprint). Quantization shrinks
// the TEE-resident parameter bytes ~4× at a small accuracy cost, which the
// ablation experiment quantifies.
package quant

import (
	"fmt"

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

// QuantizedModel is a staged model quantized for int8 serving: the armed
// model and the int8 records it was armed from.
type QuantizedModel struct {
	// Model is the armed model: every convolution and the head run the int8
	// kernels and hold no float32 weights; the architecture, biases and BN
	// parameters stay float32. It is immutable once armed, so deployments
	// share it.
	Model  *zoo.Model
	Convs  []QuantizedConv  // in stage traversal order
	Denses []QuantizedDense // the head (and any future dense layers)
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

// dequantizeRows reverses quantizeRows into a new [rows, cols] matrix.
func dequantizeRows(data []int8, scales []float32, rows, cols int) *tensor.Tensor {
	dst := tensor.New(rows, cols)
	for r := 0; r < rows; r++ {
		s := scales[r]
		for i := 0; i < cols; i++ {
			dst.Data()[r*cols+i] = float32(data[r*cols+i]) * s
		}
	}
	return dst
}

// Quantize converts a float32 model into its int8 serving form; it panics,
// naming the layer, when m is already int8 (nn.Weighted.Weight). The input
// model is not modified: its float32 weights are read once, into the
// records, which then arm a copy of m made without weights
// (nn.CloneBare), so no float32 weight is copied.
func Quantize(m *zoo.Model) *QuantizedModel {
	var convs []QuantizedConv
	for _, s := range m.Stages {
		for _, c := range s.Convs() {
			w := c.Weight().Value
			data, scales := quantizeRows(w)
			q := QuantizedConv{OutC: w.Dim(0), Cols: w.Dim(1), Data: data, Scales: scales}
			if b := c.Bias(); b != nil {
				q.Bias = append([]float32(nil), b.Value.Data()...)
			}
			convs = append(convs, q)
		}
	}
	fc := m.Head.FC
	// Dense weights are [In, Out]; quantize per output column by transposing.
	data, scales := quantizeRows(tensor.Transpose(fc.Weight().Value))
	denses := []QuantizedDense{{
		In: fc.In, Out: fc.Out, Data: data, Scales: scales,
		Bias: append([]float32(nil), fc.B.Value.Data()...),
	}}
	qm, err := Arm(m.CloneWith(nn.CloneBare), convs, denses)
	if err != nil {
		panic(err) // records cut from m itself always fit its copy
	}
	return qm
}

// Arm attaches int8 records to m and returns the quantized branch: every
// convolution, in stage traversal order (zoo.Stage.Convs), and then the head
// take their record's weights (SetInt8Weights, which drops any float32
// ones). m is armed in place and keeps its own biases, which the records
// copy; Quantize and the artifact loader both build it with no weights. Arm
// fails when the records do not fit m: a count, a layer's dimensions or the
// head's [In, Out] differ.
func Arm(m *zoo.Model, convs []QuantizedConv, denses []QuantizedDense) (*QuantizedModel, error) {
	ci := 0
	for si, s := range m.Stages {
		for _, c := range s.Convs() {
			if ci >= len(convs) {
				return nil, fmt.Errorf("quant: stage %d: model needs more than %d quantized convolutions", si, len(convs))
			}
			q := &convs[ci]
			ci++
			if err := c.SetInt8Weights(q.Data, q.Scales); err != nil {
				return nil, fmt.Errorf("quant: stage %d: %w", si, err)
			}
		}
	}
	if ci != len(convs) {
		return nil, fmt.Errorf("quant: %d quantized convolutions but model consumed %d", len(convs), ci)
	}
	if len(denses) != 1 {
		return nil, fmt.Errorf("quant: expected 1 quantized dense layer, have %d", len(denses))
	}
	qd, fc := denses[0], m.Head.FC
	if qd.In != fc.In || qd.Out != fc.Out {
		return nil, fmt.Errorf("quant: head is [%d,%d], quantized dense is [%d,%d]",
			fc.In, fc.Out, qd.In, qd.Out)
	}
	// QuantizedDense.Data is already [Out, In] — the dot-product layout the
	// int8 dense kernel expects.
	if err := fc.SetInt8Weights(qd.Data, qd.Scales); err != nil {
		return nil, fmt.Errorf("quant: head: %w", err)
	}
	return &QuantizedModel{Model: m, Convs: convs, Denses: denses}, nil
}

// Dequantize reconstructs a float32 model: a weightless copy of the armed
// model (nn.CloneBare) whose every convolution and head is given float32
// weights rebuilt from the records.
func (qm *QuantizedModel) Dequantize() *zoo.Model {
	out := qm.Model.CloneWith(nn.CloneBare)
	ci := 0
	for _, s := range out.Stages {
		for _, c := range s.Convs() {
			q := qm.Convs[ci]
			ci++
			c.SetWeights(dequantizeRows(q.Data, q.Scales, q.OutC, q.Cols))
		}
	}
	qd := qm.Denses[0]
	out.Head.FC.SetWeights(tensor.Transpose(dequantizeRows(qd.Data, qd.Scales, qd.Out, qd.In)))
	return out
}

// ParamBytes returns the quantized parameter footprint: int8 weights, float32
// scales and biases, float32 BN parameters of the armed model.
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
	// BN parameters (γ, β, running stats) remain float32.
	for _, s := range qm.Model.Stages {
		for _, bn := range s.Norms() {
			n += int64(bn.C) * 4 * 4
		}
	}
	return n
}
