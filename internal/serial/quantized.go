package serial

import (
	"encoding/binary"
	"fmt"

	"tbnet/internal/quant"
)

// Version-3 deployment artifacts: the int8 quantized serving form. An armed
// model holds no float32 weights, so its body is written without them, and
// the weights ship as raw int8 payloads with per-channel float32 scales,
// shrinking the artifact roughly 4× alongside the secure-memory win. The
// loader arms the weightless body from those records (quant.Arm).

const (
	// precF32/precInt8 are the Artifact.Precision values.
	precF32  = "f32"
	precInt8 = "int8"
	// precByteF32/precByteInt8 encode the precision in the v3 header.
	precByteF32  = 0
	precByteInt8 = 1
	// maxQuantLayers bounds the conv/dense record counts a loader accepts.
	maxQuantLayers = 4096
)

// i8s writes a length-prefixed int8 slice.
func (w *writer) i8s(data []int8) {
	w.u32(uint32(len(data)))
	if w.err != nil {
		return
	}
	w.err = binary.Write(w.w, binary.LittleEndian, data)
}

// i8s reads a length-prefixed int8 slice and requires exactly expect
// elements (the count is always derivable from already-validated dims, so a
// mismatch is corruption, not a negotiation).
func (r *reader) i8s(expect int) []int8 {
	n := int(r.u32())
	if r.err != nil {
		return nil
	}
	if n != expect {
		r.err = fmt.Errorf("%w: int8 tensor size %d, expected %d", ErrBadFormat, n, expect)
		return nil
	}
	if !r.claim(int64(n)) {
		return nil
	}
	buf := make([]int8, n)
	for dst := buf; len(dst) > 0; {
		b := r.scratch[:min(len(dst), len(r.scratch))]
		if !r.fill(b) {
			return nil
		}
		for i, v := range b {
			dst[i] = int8(v)
		}
		dst = dst[len(b):]
	}
	return buf
}

// f32s writes a length-prefixed float32 slice (nil writes length 0).
func (w *writer) f32s(data []float32) {
	w.u32(uint32(len(data)))
	if w.err != nil || len(data) == 0 {
		return
	}
	w.err = binary.Write(w.w, binary.LittleEndian, data)
}

// f32s reads a length-prefixed float32 slice of exactly expect elements;
// expect 0 accepts only an empty (nil) slice.
func (r *reader) f32s(expect int) []float32 {
	n := int(r.u32())
	if r.err != nil {
		return nil
	}
	if n != expect {
		r.err = fmt.Errorf("%w: float32 vector size %d, expected %d", ErrBadFormat, n, expect)
		return nil
	}
	if n == 0 || !r.claim(4*int64(n)) {
		return nil
	}
	buf := make([]float32, n)
	r.f32sInto(buf)
	if r.err != nil {
		return nil
	}
	return buf
}

// saveQuantizedModel writes one quantized branch: the weight-elided model
// body (architecture, BN parameters, biases) followed by the int8 weight
// records.
func saveQuantizedModel(w *writer, qm *quant.QuantizedModel) {
	saveModelBody(w, qm.Model, true)
	w.i32(len(qm.Convs))
	for _, q := range qm.Convs {
		w.i32(q.OutC)
		w.i32(q.Cols)
		w.i8s(q.Data)
		w.f32s(q.Scales)
		w.f32s(q.Bias)
	}
	w.i32(len(qm.Denses))
	for _, q := range qm.Denses {
		w.i32(q.In)
		w.i32(q.Out)
		w.i8s(q.Data)
		w.f32s(q.Scales)
		w.f32s(q.Bias)
	}
}

// loadQuantizedModel reads one quantized branch written by
// saveQuantizedModel, bounding every allocation before making it, and arms
// the weightless body with the records (quant.Arm). Records that do not fit
// the body (counts, per-layer dims) fail with ErrBadFormat.
func loadQuantizedModel(r *reader) *quant.QuantizedModel {
	m := loadModelBody(r, true)
	if r.err != nil {
		return nil
	}
	nc := r.i32()
	if r.err != nil {
		return nil
	}
	if nc < 0 || nc > maxQuantLayers {
		r.err = fmt.Errorf("%w: quantized conv count %d", ErrBadFormat, nc)
		return nil
	}
	var convs []quant.QuantizedConv
	for i := 0; i < nc; i++ {
		outC, cols := r.i32(), r.i32()
		if r.err != nil {
			return nil
		}
		if outC <= 0 || cols <= 0 || int64(outC)*int64(cols) > maxTensorElems {
			r.err = fmt.Errorf("%w: quantized conv dims %dx%d", ErrBadFormat, outC, cols)
			return nil
		}
		q := quant.QuantizedConv{OutC: outC, Cols: cols}
		q.Data = r.i8s(outC * cols)
		q.Scales = r.f32s(outC)
		// Bias length is self-describing: 0 (absent) or one per channel.
		if n := r.u32(); r.err == nil && n != 0 {
			if n != uint32(outC) {
				r.err = fmt.Errorf("%w: quantized conv bias size %d for %d channels",
					ErrBadFormat, n, outC)
				return nil
			}
			q.Bias = make([]float32, n)
			r.f32sInto(q.Bias)
		}
		if r.err != nil {
			return nil
		}
		convs = append(convs, q)
	}
	nd := r.i32()
	if r.err != nil {
		return nil
	}
	if nd < 0 || nd > maxQuantLayers {
		r.err = fmt.Errorf("%w: quantized dense count %d", ErrBadFormat, nd)
		return nil
	}
	var denses []quant.QuantizedDense
	for i := 0; i < nd; i++ {
		in, out := r.i32(), r.i32()
		if r.err != nil {
			return nil
		}
		if in <= 0 || out <= 0 || int64(in)*int64(out) > maxTensorElems {
			r.err = fmt.Errorf("%w: quantized dense dims %dx%d", ErrBadFormat, in, out)
			return nil
		}
		q := quant.QuantizedDense{In: in, Out: out}
		q.Data = r.i8s(in * out)
		q.Scales = r.f32s(out)
		q.Bias = r.f32s(out)
		if r.err != nil {
			return nil
		}
		denses = append(denses, q)
	}
	qm, err := quant.Arm(m, convs, denses)
	if err != nil {
		r.err = fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	return qm
}
