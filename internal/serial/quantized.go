package serial

import (
	"encoding/binary"
	"fmt"

	"tbnet/internal/quant"
	"tbnet/internal/zoo"
)

// Version-3 deployment artifacts: the int8 quantized serving form. An armed
// model holds no float32 weights, so its body is written without them, and
// the weights ship as raw int8 records with per-channel float32 scales,
// shrinking the artifact roughly 4× alongside the secure-memory win. The
// writer reads the records back out of the armed layers (quant.Records);
// the loader arms the weightless body from them (quant.Arm) and drops them.
// Each record repeats its layer's bias, which the body already carries: the
// two copies must agree bit for bit.

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

// saveInt8Branch writes one armed branch: the weight-elided model body
// (architecture, BN parameters, biases) followed by the int8 weight records
// read back out of its layers.
func saveInt8Branch(w *writer, m *zoo.Model) {
	saveModelBody(w, m, true)
	convs, denses := quant.Records(m)
	w.records(convs, false)
	w.records(denses, true)
}

// records writes a record count and the records, each's dimensions in the
// order the format stores them (reader.record).
func (w *writer) records(qs []quant.Record, transposed bool) {
	w.i32(len(qs))
	for _, q := range qs {
		a, b := q.Rows, q.Cols
		if transposed {
			a, b = b, a
		}
		w.i32(a)
		w.i32(b)
		w.i8s(q.Data)
		w.f32s(q.Scales)
		w.f32s(q.Bias)
	}
}

// loadInt8Branch reads one armed branch written by saveInt8Branch,
// bounding every allocation before making it, and arms the weightless body
// with the records (quant.Arm), which it then drops. Records that do not
// fit the body (counts, per-layer dims, a bias other than the body's) fail
// with ErrBadFormat.
func loadInt8Branch(r *reader) *zoo.Model {
	m := loadModelBody(r, true)
	convs := r.records("conv", false)
	denses := r.records("dense", true)
	if r.err != nil {
		return nil
	}
	if err := quant.Arm(m, convs, denses); err != nil {
		r.err = fmt.Errorf("%w: %v", ErrBadFormat, err)
		return nil
	}
	return m
}

// records reads a record count (at most maxQuantLayers) and the records.
func (r *reader) records(what string, transposed bool) []quant.Record {
	n := r.i32()
	if r.err == nil && (n < 0 || n > maxQuantLayers) {
		r.err = fmt.Errorf("%w: quantized %s count %d", ErrBadFormat, what, n)
	}
	var qs []quant.Record
	for i := 0; i < n && r.err == nil; i++ {
		qs = append(qs, r.record(what, transposed))
	}
	return qs
}

// record reads one int8 record. A convolution's dimensions are stored
// [Rows, Cols], the head's transposed, [In, Out]. The bias length is
// self-describing: 0 (absent) or one per row.
func (r *reader) record(what string, transposed bool) quant.Record {
	a, b := r.i32(), r.i32()
	q := quant.Record{Rows: a, Cols: b}
	if transposed {
		q.Rows, q.Cols = b, a
	}
	if r.err == nil && (a <= 0 || b <= 0 || int64(a)*int64(b) > maxTensorElems) {
		r.err = fmt.Errorf("%w: quantized %s dims %dx%d", ErrBadFormat, what, a, b)
	}
	q.Data = r.i8s(a * b)
	q.Scales = r.f32s(q.Rows)
	if n := r.u32(); r.err == nil && n != 0 {
		if n != uint32(q.Rows) {
			r.err = fmt.Errorf("%w: quantized %s bias size %d for %d rows", ErrBadFormat, what, n, q.Rows)
			return q
		}
		q.Bias = make([]float32, n)
		r.f32sInto(q.Bias)
	}
	return q
}
