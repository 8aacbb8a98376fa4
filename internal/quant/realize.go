package quant

import (
	"fmt"

	"tbnet/internal/zoo"
)

// Realize builds an executable int8 model: a clone of the skeleton with the
// quantized weights attached to every convolution and dense layer via
// SetInt8Weights, so ForwardInto dispatches to the int8 kernels. Biases are
// restored from the quantized record where present (artifact loads elide the
// float32 weight tensors but still need biases). The float32 weight tensors
// of the returned model stay zeroed — the int8 path never reads them.
func (qm *QuantizedModel) Realize() (*zoo.Model, error) {
	out := qm.Skeleton.Clone()
	ci := 0
	for si, s := range out.Stages {
		for _, c := range s.Convs() {
			if ci >= len(qm.Convs) {
				return nil, fmt.Errorf("quant: stage %d: model needs more than %d quantized convolutions", si, len(qm.Convs))
			}
			q := &qm.Convs[ci]
			ci++
			if err := c.SetInt8Weights(q.Data, q.Scales); err != nil {
				return nil, fmt.Errorf("quant: stage %d: %w", si, err)
			}
			if b := c.Bias(); b != nil && q.Bias != nil {
				copy(b.Value.Data(), q.Bias)
			}
		}
	}
	if ci != len(qm.Convs) {
		return nil, fmt.Errorf("quant: %d quantized convolutions but model consumed %d", len(qm.Convs), ci)
	}
	if len(qm.Denses) != 1 {
		return nil, fmt.Errorf("quant: expected 1 quantized dense layer, have %d", len(qm.Denses))
	}
	qd := qm.Denses[0]
	fc := out.Head.FC
	if qd.In != fc.In || qd.Out != fc.Out {
		return nil, fmt.Errorf("quant: head is [%d,%d], quantized dense is [%d,%d]",
			fc.In, fc.Out, qd.In, qd.Out)
	}
	// QuantizedDense.Data is already [Out, In] — the dot-product layout the
	// int8 dense kernel expects.
	if err := fc.SetInt8Weights(qd.Data, qd.Scales); err != nil {
		return nil, fmt.Errorf("quant: head: %w", err)
	}
	copy(fc.B.Value.Data(), qd.Bias)
	return out, nil
}
