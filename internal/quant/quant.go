// Package quant implements post-training int8 weight quantization for the
// secure branch — one of the deployment optimizations the paper's Sec. 5.3
// anticipates. Weights are quantized symmetrically per output channel
// (scale = max|w| / 127); batch-norm parameters and biases stay float32
// (they are a negligible fraction of the footprint). Quantization shrinks
// the TEE-resident parameter bytes ~4× at a small accuracy cost, which the
// ablation experiment quantifies. An int8 branch is its armed model: its
// layers hold the packed weights the kernels read and nothing else. The
// per-layer records (Record) exist only in passing, from a reader into Arm
// and from Records out to a writer.
package quant

import (
	"fmt"
	"math"
	"slices"

	"tbnet/internal/nn"
	"tbnet/internal/tensor"
	"tbnet/internal/zoo"
)

// Record is one layer's int8 weights, as an artifact stores them.
type Record struct {
	// Rows and Cols are the weight matrix dimensions: [OutC, InC·k·k] for
	// a convolution, and [Out, In] for a dense layer, transposed relative
	// to its float32 [In, Out] storage so each output's weights form one
	// contiguous dot-product row.
	Rows, Cols int
	// Data is the row-major [Rows, Cols] int8 weight matrix.
	Data []int8
	// Scales holds one symmetric scale per row (output channel).
	Scales []float32
	// Bias is the layer's float32 bias (never quantized), nil when absent.
	Bias []float32
}

// quantizeRows cuts the record of the [rows, cols] weights w, one scale per
// row, and the layer's bias.
func quantizeRows(w *tensor.Tensor, bias []float32) Record {
	q := Record{Rows: w.Dim(0), Cols: w.Dim(1), Data: make([]int8, w.Size()), Scales: make([]float32, w.Dim(0)), Bias: bias}
	for r := range q.Scales {
		row := w.Data()[r*q.Cols : (r+1)*q.Cols]
		scale := tensor.MaxAbs(row) / 127
		if scale == 0 {
			scale = 1
		}
		q.Scales[r] = scale
		for i, v := range row {
			v = min(max(v/scale, -127), 127)
			if v >= 0 {
				q.Data[r*q.Cols+i] = int8(v + 0.5)
			} else {
				q.Data[r*q.Cols+i] = int8(v - 0.5)
			}
		}
	}
	return q
}

// dequantizeRows reverses quantizeRows into a new [Rows, Cols] matrix.
func dequantizeRows(q Record) *tensor.Tensor {
	dst := tensor.New(q.Rows, q.Cols)
	for i, v := range q.Data {
		dst.Data()[i] = float32(v) * q.Scales[i/q.Cols]
	}
	return dst
}

// Quantize converts a float32 model into its int8 serving form: a copy of m
// made without weights (nn.CloneBare), armed (Arm) with records cut from
// m's float32 weights. It panics, naming the layer, when m is already int8
// (nn.Weighted.Weight). m is not modified and no float32 weight is copied.
func Quantize(m *zoo.Model) *zoo.Model {
	var convs []Record
	for _, s := range m.Stages {
		for _, c := range s.Convs() {
			convs = append(convs, quantizeRows(c.Weight().Value, biasOf(c.Bias())))
		}
	}
	// Dense weights are [In, Out]; quantize per output column by transposing.
	fc := m.Head.FC
	head := quantizeRows(tensor.Transpose(fc.Weight().Value), fc.B.Value.Data())
	out := m.CloneWith(nn.CloneBare)
	if err := Arm(out, convs, []Record{head}); err != nil {
		panic(err) // records cut from m itself always fit its copy
	}
	return out
}

// Arm gives m's layers the int8 records: every convolution, in stage
// traversal order (zoo.Stage.Convs), and then the head (the one dense
// record) take their record's weights (SetInt8Weights, which drops any
// float32 ones). m keeps its own biases; Quantize and the artifact loader
// both build it with no weights. Arm fails when the records do not fit m: a
// count, a layer's dimensions, or a record's bias, which must be m's bias
// bit for bit (both absent, or equal). The layers keep no record: their
// packed weights are the branch's only copy (Records reads them back).
func Arm(m *zoo.Model, convs, denses []Record) error {
	ci := 0
	for si, s := range m.Stages {
		for _, c := range s.Convs() {
			if ci >= len(convs) {
				return fmt.Errorf("quant: stage %d: model needs more than %d quantized convolutions", si, len(convs))
			}
			q := &convs[ci]
			ci++
			if !sameBits(q.Bias, biasOf(c.Bias())) {
				return fmt.Errorf("quant: stage %d: quantized convolution %d's bias differs from the layer's", si, ci-1)
			}
			if err := c.SetInt8Weights(q.Data, q.Scales); err != nil {
				return fmt.Errorf("quant: stage %d: %w", si, err)
			}
		}
	}
	if ci != len(convs) {
		return fmt.Errorf("quant: %d quantized convolutions but model consumed %d", len(convs), ci)
	}
	if len(denses) != 1 {
		return fmt.Errorf("quant: expected 1 quantized dense layer, have %d", len(denses))
	}
	qd, fc := denses[0], m.Head.FC
	switch {
	case qd.Rows != fc.Out || qd.Cols != fc.In:
		return fmt.Errorf("quant: head is [%d,%d], quantized dense is [%d,%d]", fc.In, fc.Out, qd.Cols, qd.Rows)
	case !sameBits(qd.Bias, fc.B.Value.Data()):
		return fmt.Errorf("quant: the quantized head's bias differs from the layer's")
	}
	return fc.SetInt8Weights(qd.Data, qd.Scales)
}

// Records reads the int8 records back out of an armed model, in Arm's
// order (nn.Weighted.Int8Weights), so Arm re-arms a bare copy of m with
// them bit for bit. They share the layers' scales and biases, and may share
// their weights, so they are for writing out, not for modifying or keeping.
func Records(m *zoo.Model) (convs, denses []Record) {
	for _, s := range m.Stages {
		for _, c := range s.Convs() {
			data, scales := c.Int8Weights()
			rows, cols := c.WeightShape()
			convs = append(convs, Record{Rows: rows, Cols: cols, Data: data, Scales: scales, Bias: biasOf(c.Bias())})
		}
	}
	fc := m.Head.FC
	data, scales := fc.Int8Weights()
	return convs, []Record{{Rows: fc.Out, Cols: fc.In, Data: data, Scales: scales, Bias: fc.B.Value.Data()}}
}

// Armed reports whether m is an int8 branch. Arm arms every layer or fails,
// so the head answers for the model.
func Armed(m *zoo.Model) bool { return m.Head.FC.Int8() }

// Dequantize reconstructs a float32 model from an armed one: a weightless
// copy (nn.CloneBare) whose every convolution and head is given float32
// weights rebuilt from the records.
func Dequantize(m *zoo.Model) *zoo.Model {
	convs, denses := Records(m)
	out := m.CloneWith(nn.CloneBare)
	ci := 0
	for _, s := range out.Stages {
		for _, c := range s.Convs() {
			c.SetWeights(dequantizeRows(convs[ci]))
			ci++
		}
	}
	out.Head.FC.SetWeights(tensor.Transpose(dequantizeRows(denses[0])))
	return out
}

// ParamBytes returns the parameter footprint of an armed model, from its
// layers' dimensions: int8 weights, float32 scales and biases, and the
// batch norms' float32 γ, β and running statistics.
func ParamBytes(m *zoo.Model) int64 {
	fc := m.Head.FC
	n := fc.In*fc.Out + 8*fc.Out
	for _, s := range m.Stages {
		for _, c := range s.Convs() {
			rows, cols := c.WeightShape()
			n += rows*cols + 4*rows + 4*len(biasOf(c.Bias()))
		}
		for _, bn := range s.Norms() {
			n += 16 * bn.C
		}
	}
	return int64(n)
}

// biasOf returns a bias parameter's values, nil for none.
func biasOf(b *nn.Param) []float32 {
	if b == nil {
		return nil
	}
	return b.Value.Data()
}

// sameBits reports whether a and b hold the same float32 bits.
func sameBits(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}
