// Package tensor implements the dense float32 tensor math that underpins the
// TBNet deep-learning stack: shape-checked n-d containers, parallel matrix
// multiplication, im2col/col2im lowering for convolutions, element-wise
// arithmetic, and reductions. Layout is row-major; image tensors use NCHW.
//
// The package is deliberately free of external dependencies so the whole
// reproduction builds offline with the standard library only.
package tensor

import (
	"fmt"
)

// Tensor is a dense, row-major float32 tensor. The zero value is an empty
// tensor; use New or FromData to construct usable values.
type Tensor struct {
	shape []int
	data  []float32
}

// New returns a zero-filled tensor with the given shape. It panics if any
// dimension is negative.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: make([]float32, n)}
}

// FromData wraps data in a tensor with the given shape. The slice is used
// directly (not copied); it panics if the element count does not match.
func FromData(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d)", len(data), shape, n))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: data}
}

// Shape returns the tensor's dimensions. The returned slice must not be
// mutated.
func (t *Tensor) Shape() []int { return t.shape }

// Data returns the backing slice in row-major order. Mutations are visible to
// the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	d := make([]float32, len(t.data))
	copy(d, t.data)
	return FromData(d, t.shape...)
}

// Reshape returns a view of the same data with a new shape. It panics if the
// element counts differ. One dimension may be -1 to be inferred.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	infer := -1
	n := 1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: multiple -1 dimensions in reshape")
			}
			infer = i
			continue
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	if infer >= 0 {
		if n == 0 || len(t.data)%n != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension for reshape %v of %v", shape, t.shape))
		}
		s[infer] = len(t.data) / n
		n *= s[infer]
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: reshape %v incompatible with %v", shape, t.shape))
	}
	return &Tensor{shape: s, data: t.data}
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// Zero sets all elements to zero.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Fill sets all elements to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Add returns t + o as a new tensor.
func Add(t, o *Tensor) *Tensor {
	out := t.Clone()
	out.AddInPlace(o)
	return out
}

// ArgMaxRow returns, for a [rows, cols] matrix, the column index of the
// maximum in row r.
func (t *Tensor) ArgMaxRow(r int) int {
	if len(t.shape) != 2 {
		panic("tensor: ArgMaxRow requires a rank-2 tensor")
	}
	cols := t.shape[1]
	row := t.data[r*cols : (r+1)*cols]
	best := 0
	for i, v := range row {
		if v > row[best] {
			best = i
		}
	}
	return best
}

func mustMatch(a, b *Tensor, op string) {
	if len(a.data) != len(b.data) {
		panic(fmt.Sprintf("tensor: %s size mismatch %v vs %v", op, a.shape, b.shape))
	}
}
