// Package profile computes the static cost model of a staged network:
// parameter bytes, arithmetic (FLOPs), and activation footprints per stage.
// The TEE deployment uses these figures for secure-memory accounting
// (paper Fig. 3) and the device-time model uses the FLOP counts for the
// latency comparison (paper Table 3).
package profile

import (
	"tbnet/internal/nn"
	"tbnet/internal/zoo"
)

// Cost is the static cost of one stage (or head) for a given input shape.
type Cost struct {
	Name       string
	Flops      float64 // multiply-accumulate ×2, for one forward pass
	ParamBytes int64   // float32 parameters
	InBytes    int64   // input activation footprint
	OutBytes   int64   // output activation footprint
}

// bytesOf returns the float32 byte size of a shape.
func bytesOf(shape []int) int64 {
	n := int64(4)
	for _, d := range shape {
		n *= int64(d)
	}
	return n
}

func paramBytes(ps []*nn.Param) int64 {
	var n int64
	for _, p := range ps {
		n += int64(p.Value.Size()) * 4
	}
	return n
}

// stageCost computes the cost of one stage for the given input shape
// (including batch dimension), whose output shape is out.
func stageCost(s zoo.Stage, in, out []int) Cost {
	return Cost{
		Name:       s.Name(),
		Flops:      s.Flops(in),
		ParamBytes: paramBytes(s.Params()),
		InBytes:    bytesOf(in),
		OutBytes:   bytesOf(out),
	}
}

// HeadCost computes the classifier-head cost for the given feature shape.
func HeadCost(h *zoo.Head, in []int) Cost {
	return Cost{
		Name:       h.Name(),
		Flops:      h.Flops(in),
		ParamBytes: paramBytes(h.Params()),
		InBytes:    bytesOf(in),
		OutBytes:   bytesOf(h.OutShape(in)),
	}
}

// ModelCost aggregates the per-stage costs of a model.
type ModelCost struct {
	Stages []Cost
	Head   Cost
}

// Profile computes the full cost breakdown of a model for inputs of the
// given shape (including batch dimension).
func Profile(m *zoo.Model, in []int) ModelCost {
	mc := ModelCost{Stages: make([]Cost, len(m.Stages))}
	cur := in
	for i, s := range m.Stages {
		out := s.OutShape(cur)
		mc.Stages[i] = stageCost(s, cur, out)
		cur = out
	}
	mc.Head = HeadCost(m.Head, cur)
	return mc
}

// TotalFlops returns the forward-pass FLOPs.
func (mc ModelCost) TotalFlops() float64 {
	f := mc.Head.Flops
	for _, s := range mc.Stages {
		f += s.Flops
	}
	return f
}

// TotalParamBytes returns the parameter footprint.
func (mc ModelCost) TotalParamBytes() int64 {
	n := mc.Head.ParamBytes
	for _, s := range mc.Stages {
		n += s.ParamBytes
	}
	return n
}

// PeakActivationBytes returns the largest simultaneous input+output
// activation footprint across stages — the working-set bound a layer-by-layer
// executor needs.
func (mc ModelCost) PeakActivationBytes() int64 {
	var peak int64
	consider := func(c Cost) {
		if v := c.InBytes + c.OutBytes; v > peak {
			peak = v
		}
	}
	for _, s := range mc.Stages {
		consider(s)
	}
	consider(mc.Head)
	return peak
}

// SecureFootprintBytes is the secure-memory bound for executing this model
// inside a TEE layer-by-layer: all parameters resident plus the peak
// activation working set.
func (mc ModelCost) SecureFootprintBytes() int64 {
	return mc.TotalParamBytes() + mc.PeakActivationBytes()
}
