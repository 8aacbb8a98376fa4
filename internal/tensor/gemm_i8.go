package tensor

// The int8 GEMM kernel serves quantized inference. It is written in
// dot-product orientation: a holds m weight rows of k int8 values, b holds n
// patch rows of k int8 values (Im2RowI8HWC or Im2RowI8 output, with a's rows
// in the matching in-patch order), and dst receives the m×n int32 products
// dst[i*n+j] = a_i · b_j. Accumulation is 32-bit integer arithmetic that
// wraps and never saturates, so — unlike the float32 kernel, which must
// control rounding order — every dispatch path (the two amd64 vector
// kernels, the scalar fallback, serial, parallel) is bit-identical by
// construction, for every byte value including -128.
//
// Blocking mirrors the float32 kernel: four weight rows are computed per
// streamed patch row (register blocking; the VNNI kernel holds four patch
// rows as well, a 4×4 tile of accumulators), and the patch rows are tiled
// so a tile of b stays cache-resident while the row quads sweep it.

// i8Kernel names an int8 micro kernel. The values are ordered: a CPU that
// passes the gate of one also runs every kernel below it, which is what lets
// the tests walk down from the detected level. BenchmarkGemmI8Shapes is the
// shape-matched rung — the eight conv products of one VGG18-S branch through
// GemmI8Serial, µs on the reference box (medians of five, the vector kernels
// and the parent commit's binary alternated in one session; the scalar
// column is from an earlier session the same day):
//
//	m × n × k      scalar-dot4   avx2-dot4 (at the parent)   avx512vnni-4x4
//	16×256× 27         59           9.1  (23.0)                2.5
//	16×256×144        300          19.7  (21.1)                5.1
//	32× 64×144        152          10.3  (11.4)                2.4
//	32× 64×288        283          17.4  (18.8)                3.6
//	48× 16×288        106           6.4   (6.9)                1.5
//	48× 16×432        158           9.6   (9.6)                2.4
//	64×  4×432         53           3.1   (3.2)                1.01
//	64×  4×576         71           4.1   (4.3)                1.31
//	one branch       1182          79.7  (98.3)               19.9
//
// Only k = 27 has a k%16 tail among them: eleven of its 27 bytes ran one at
// a time at the parent; the rest of the AVX2 column's gain is the one-store
// reduction. The row sums the VNNI kernel forms per call are four vpdpbusd
// per step beside a tile's sixteen — a fifth of the n = 4 stages' work,
// ≈ 0.2 µs of 1.31 — so they stay in the kernel, not on the layer.
type i8Kernel int

const (
	i8Scalar i8Kernel = iota // dot4I8Scalar
	i8AVX2                   // dot4I8SIMD: vpmovsxbw + vpmaddwd, one patch row per call
	i8VNNI                   // gemmI8TileVNNI: 4×4 vpdpbusd tile, patch-row loop in assembly
)

func (l i8Kernel) String() string {
	return [...]string{"scalar-dot4", "avx2-dot4", "avx512vnni-4x4"}[l]
}

// i8PatchTile is the patch-tile height: this many b rows are kept resident
// while consecutive weight-row quads sweep them.
const i8PatchTile = 256

// maxI8DotLen bounds the shared dimension of the int8 kernel. No kernel
// needs the bound to be correct: each is exact modulo 2^32 at any length
// (int8×int8 products and their pairwise and four-wise sums fit the word and
// dword lanes the vector kernels form them in, and every add after that
// wraps), so all three return the true dot product whenever it fits an
// int32 — always for k ≤ 131 071 (|a_p·b_p| ≤ 2^14), and for k ≤ 133 144
// when neither operand holds -128, which is what the quantizers emit — and
// the same wrapped value beyond. The bound only keeps the wrapped regime far
// away: conv and dense weight rows are a few thousand at most (the serial
// loader caps whole tensors at 2^26 elems).
const maxI8DotLen = 1 << 23

// GemmI8Parallel computes dst[i*n+j] = a_i · b_j, where a is m×k and b is
// n×k, both row-major int8, over the worker pool under GemmParallel's
// dispatch rule (gemmGrain). Like GemmParallel it must not be called from
// inside a Parallel region (use GemmI8Serial there).
func GemmI8Parallel(dst []int32, a, b []int8, m, n, k int) {
	checkI8Dims(dst, a, b, m, n, k)
	blocks := (m + rowBlock - 1) / rowBlock
	grain := gemmGrain(n, k)
	if blocks/grain <= 1 || Workers() == 1 {
		gemmI8Rows(dst, a, b, n, k, 0, m)
		return
	}
	Parallel(blocks, grain, func(_, lo, hi int) {
		gemmI8Rows(dst, a, b, n, k, lo*rowBlock, min(hi*rowBlock, m))
	})
}

// GemmI8Serial is GemmI8Parallel on the calling goroutine, bit-identical to
// it; per-sample inference paths already running inside the worker pool use
// this form.
func GemmI8Serial(dst []int32, a, b []int8, m, n, k int) {
	checkI8Dims(dst, a, b, m, n, k)
	gemmI8Rows(dst, a, b, n, k, 0, m)
}

func checkI8Dims(dst []int32, a, b []int8, m, n, k int) {
	if k > maxI8DotLen {
		panic("tensor: int8 GEMM shared dimension too large")
	}
	_, _, _ = dst[:m*n], a[:m*k], b[:n*k]
}

// i8TileArgs is what one gemmI8TileVNNI call reads; the assembly addresses
// the fields by offset, so the layout is part of its contract.
type i8TileArgs struct {
	dst  *int32 // 0: product of the first weight row and the first patch row, row stride ldc
	a    *int8  // 8: first of four weight rows, row stride lda
	b    *int8  // 16: first patch row, row stride k
	ldc  int    // 24
	lda  int    // 32
	k    int    // 40: at least 1
	rows int    // 48: patch rows to sweep, at least 1
}

// gemmI8Rows computes output rows [r0, r1) of the int8 product.
func gemmI8Rows(dst []int32, a, b []int8, n, k, r0, r1 int) {
	if k == 0 {
		clear(dst[r0*n : r1*n])
		return
	}
	quads := r0 + (r1-r0)/rowBlock*rowBlock
	for j0 := 0; j0 < n; j0 += i8PatchTile {
		j1 := min(j0+i8PatchTile, n)
		if i8Level == i8VNNI {
			// One call per weight-row quad: the patch-row loop, the reduction
			// and the stores are the kernel's. A remainder row (fewer than
			// rowBlock left) is a quad whose four rows alias it — zero row
			// strides, as in the float32 tile — so it runs at vector speed.
			t := i8TileArgs{b: &b[j0*k], ldc: n, lda: k, k: k, rows: j1 - j0}
			for i := r0; i < quads; i += rowBlock {
				t.dst, t.a = &dst[i*n+j0], &a[i*k]
				gemmI8TileVNNI(&t)
			}
			t.ldc, t.lda = 0, 0
			for i := quads; i < r1; i++ {
				t.dst, t.a = &dst[i*n+j0], &a[i*k]
				gemmI8TileVNNI(&t)
			}
			continue
		}
		for i := r0; i < quads; i += rowBlock {
			a0 := a[(i+0)*k : (i+1)*k]
			a1 := a[(i+1)*k : (i+2)*k]
			a2 := a[(i+2)*k : (i+3)*k]
			a3 := a[(i+3)*k : (i+4)*k]
			for j := j0; j < j1; j++ {
				x := b[j*k : (j+1)*k]
				var out [4]int32
				if i8Level == i8AVX2 && k >= 16 {
					dot4I8SIMD(&a0[0], &a1[0], &a2[0], &a3[0], &x[0], k, &out)
				} else {
					dot4I8Scalar(a0, a1, a2, a3, x, &out)
				}
				dst[(i+0)*n+j] = out[0]
				dst[(i+1)*n+j] = out[1]
				dst[(i+2)*n+j] = out[2]
				dst[(i+3)*n+j] = out[3]
			}
		}
		// Remainder rows run the single-row scalar dot; integer accumulation
		// keeps them bit-identical regardless.
		for i := quads; i < r1; i++ {
			ai := a[i*k : (i+1)*k]
			for j := j0; j < j1; j++ {
				dst[i*n+j] = dotI8(ai, b[j*k:(j+1)*k])
			}
		}
	}
}

// dot4I8Scalar is the portable row-quad kernel: four weight rows against one
// shared patch row, unrolled so the compiler keeps the accumulators in
// registers.
func dot4I8Scalar(a0, a1, a2, a3, x []int8, out *[4]int32) {
	var s0, s1, s2, s3 int32
	for j, xv := range x {
		v := int32(xv)
		s0 += int32(a0[j]) * v
		s1 += int32(a1[j]) * v
		s2 += int32(a2[j]) * v
		s3 += int32(a3[j]) * v
	}
	out[0], out[1], out[2], out[3] = s0, s1, s2, s3
}

// dotI8 is the single-row int8 dot product used for remainder rows.
func dotI8(a, x []int8) int32 {
	var s int32
	for j, xv := range x {
		s += int32(a[j]) * int32(xv)
	}
	return s
}
