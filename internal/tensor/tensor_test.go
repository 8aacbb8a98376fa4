package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3, 4)
	if x.Size() != 24 {
		t.Fatalf("size = %d, want 24", x.Size())
	}
	for i, v := range x.Data() {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
}

func TestFromDataMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched data length")
		}
	}()
	FromData([]float32{1, 2, 3}, 2, 2)
}

func TestReshapeInfer(t *testing.T) {
	x := New(2, 6)
	y := x.Reshape(3, -1)
	if y.Dim(0) != 3 || y.Dim(1) != 4 {
		t.Fatalf("reshape gave %v, want [3 4]", y.Shape())
	}
	// Views share storage.
	y.Data()[0] = 5
	if x.Data()[0] != 5 {
		t.Fatal("reshape must alias the original data")
	}
}

func TestReshapeBadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for incompatible reshape")
		}
	}()
	New(2, 3).Reshape(4, 2)
}

func TestCloneIndependent(t *testing.T) {
	x := FromData([]float32{1, 2, 3}, 3)
	y := x.Clone()
	y.Data()[0] = 9
	if x.Data()[0] != 1 {
		t.Fatal("clone must not alias the original")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromData([]float32{1, 2, 3, 4}, 2, 2)
	b := FromData([]float32{4, 3, 2, 1}, 2, 2)
	s := Add(a, b)
	for _, v := range s.Data() {
		if v != 5 {
			t.Fatalf("add gave %v, want all 5s", s.Data())
		}
	}
}

func TestReductions(t *testing.T) {
	x := FromData([]float32{-1, 2, -3, 4}, 4)
	if got := MaxAbs(x.Data()); got != 4 {
		t.Fatalf("maxabs = %v, want 4", got)
	}
}

func TestArgMaxRow(t *testing.T) {
	x := FromData([]float32{0, 3, 1, 9, 2, 4}, 2, 3)
	if got := x.ArgMaxRow(0); got != 1 {
		t.Fatalf("row 0 argmax = %d, want 1", got)
	}
	if got := x.ArgMaxRow(1); got != 0 {
		t.Fatalf("row 1 argmax = %d, want 0", got)
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromData([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromData([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, v := range c.Data() {
		if v != want[i] {
			t.Fatalf("matmul gave %v, want %v", c.Data(), want)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := NewRNG(1)
	a := New(5, 5)
	rng.FillNormal(a, 0, 1)
	id := New(5, 5)
	for i := 0; i < 5; i++ {
		id.Data()[i*5+i] = 1
	}
	c := MatMul(a, id)
	for i, v := range c.Data() {
		if math.Abs(float64(v-a.Data()[i])) > 1e-6 {
			t.Fatalf("A@I != A at %d: %v vs %v", i, v, a.Data()[i])
		}
	}
}

// TestMatMulParallelMatchesSerial checks the fan-out path against a naive
// reference on a matrix large enough to trigger parallelism.
func TestMatMulParallelMatchesSerial(t *testing.T) {
	rng := NewRNG(2)
	m, k, n := 130, 40, 30
	a, b := New(m, k), New(k, n)
	rng.FillNormal(a, 0, 1)
	rng.FillNormal(b, 0, 1)
	got := MatMul(a, b)
	for i := 0; i < m; i += 17 { // spot-check rows
		for j := 0; j < n; j += 7 {
			var want float64
			for p := 0; p < k; p++ {
				want += float64(a.Data()[i*k+p]) * float64(b.Data()[p*n+j])
			}
			if g := got.Data()[i*n+j]; math.Abs(float64(g)-want) > 1e-3 {
				t.Fatalf("parallel matmul mismatch at (%d,%d): %v vs %v", i, j, g, want)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rng := NewRNG(seed)
		m := 1 + rng.Intn(6)
		n := 1 + rng.Intn(6)
		a := New(m, n)
		rng.FillNormal(a, 0, 1)
		b := Transpose(Transpose(a))
		if !a.SameShape(b) {
			return false
		}
		for i, v := range a.Data() {
			if b.Data()[i] != v {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// TestMatMulAssociativityWithTranspose: (A@B)^T == B^T @ A^T, a linear-algebra
// identity that exercises both kernels.
func TestMatMulTransposeIdentity(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rng := NewRNG(seed)
		m, k, n := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a, b := New(m, k), New(k, n)
		rng.FillNormal(a, 0, 1)
		rng.FillNormal(b, 0, 1)
		lhs := Transpose(MatMul(a, b))
		rhs := MatMul(Transpose(b), Transpose(a))
		for i := range lhs.Data() {
			if math.Abs(float64(lhs.Data()[i]-rhs.Data()[i])) > 1e-4 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// 1x1 kernel, stride 1, no pad: im2col is the identity.
	src := []float32{1, 2, 3, 4, 5, 6, 7, 8}
	dst := make([]float32, 8)
	oh, ow := Im2Col(src, 2, 2, 2, 1, 1, 1, 0, dst)
	if oh != 2 || ow != 2 {
		t.Fatalf("out dims = %dx%d, want 2x2", oh, ow)
	}
	for i, v := range dst {
		if v != src[i] {
			t.Fatalf("identity im2col gave %v", dst)
		}
	}
}

func TestIm2ColPadding(t *testing.T) {
	// Single 2x2 plane, 3x3 kernel, pad 1: center column equals the image.
	src := []float32{1, 2, 3, 4}
	k := 3
	dst := make([]float32, 1*k*k*4)
	oh, ow := Im2Col(src, 1, 2, 2, k, k, 1, 1, dst)
	if oh != 2 || ow != 2 {
		t.Fatalf("out dims = %dx%d, want 2x2", oh, ow)
	}
	// Kernel position (1,1) (center) reads the unshifted image.
	center := dst[(1*k+1)*4 : (1*k+1)*4+4]
	for i, v := range center {
		if v != src[i] {
			t.Fatalf("center kernel column = %v, want %v", center, src)
		}
	}
	// Kernel position (0,0) reads the image shifted down-right with zero fill.
	topLeft := dst[0:4]
	want := []float32{0, 0, 0, 1}
	for i, v := range topLeft {
		if v != want[i] {
			t.Fatalf("top-left kernel column = %v, want %v", topLeft, want)
		}
	}
}

// TestCol2ImAdjoint verifies <im2col(x), y> == <x, col2im(y)> — the defining
// property of an adjoint pair, which is exactly what backprop relies on.
func TestCol2ImAdjoint(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rng := NewRNG(seed)
		c, h, w := 1+rng.Intn(3), 3+rng.Intn(4), 3+rng.Intn(4)
		k := 1 + rng.Intn(3)
		stride := 1 + rng.Intn(2)
		pad := rng.Intn(2)
		if h+2*pad < k || w+2*pad < k {
			return true // skip invalid geometry
		}
		oh := ConvOutDim(h, k, stride, pad)
		ow := ConvOutDim(w, k, stride, pad)
		x := make([]float32, c*h*w)
		y := make([]float32, c*k*k*oh*ow)
		for i := range x {
			x[i] = float32(rng.Norm())
		}
		for i := range y {
			y[i] = float32(rng.Norm())
		}
		cx := make([]float32, len(y))
		Im2Col(x, c, h, w, k, k, stride, pad, cx)
		var lhs float64
		for i := range y {
			lhs += float64(cx[i]) * float64(y[i])
		}
		xb := make([]float32, len(x))
		Col2Im(y, c, h, w, k, k, stride, pad, xb)
		var rhs float64
		for i := range x {
			rhs += float64(x[i]) * float64(xb[i])
		}
		return math.Abs(lhs-rhs) < 1e-2
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give the same stream")
		}
	}
}

func TestRNGNormMoments(t *testing.T) {
	rng := NewRNG(7)
	n := 20000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := rng.Norm()
		sum += v
		sq += v * v
	}
	mean := sum / float64(n)
	variance := sq/float64(n) - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rng := NewRNG(seed)
		n := 1 + rng.Intn(50)
		p := rng.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}
