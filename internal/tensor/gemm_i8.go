package tensor

// The int8 GEMM kernel serves quantized inference. It is written in
// dot-product orientation: a holds m weight rows of k int8 values, b holds n
// patch rows of k int8 values (Im2RowI8HWC or Im2RowI8 output, with a's rows
// in the matching in-patch order), and dst receives the m×n int32 products
// dst[i*n+j] = a_i · b_j. Accumulation is exact 32-bit
// integer arithmetic, so — unlike the float32 kernel, which must control
// rounding order — every dispatch path (amd64 vector kernel, scalar
// fallback, serial, parallel) is bit-identical by construction.
//
// Blocking mirrors the float32 kernel: four weight rows are computed per
// streamed patch row (register blocking), and the patch rows are tiled so a
// tile of b stays cache-resident while the row quads sweep it.

// i8PatchTile is the patch-tile height: this many b rows are kept resident
// while consecutive weight-row quads sweep them.
const i8PatchTile = 256

// maxI8DotLen bounds the shared dimension of the int8 kernel: the amd64
// vector path accumulates eight lanes of ±127·±127 pairwise products in
// int32, which cannot overflow while k ≤ 2^23. Conv and dense weight rows
// are far below this (the serial loader caps whole tensors at 2^26 elems).
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

// gemmI8Rows computes output rows [r0, r1) of the int8 product.
func gemmI8Rows(dst []int32, a, b []int8, n, k, r0, r1 int) {
	if k == 0 {
		for i := r0; i < r1; i++ {
			row := dst[i*n : (i+1)*n]
			for j := range row {
				row[j] = 0
			}
		}
		return
	}
	for j0 := 0; j0 < n; j0 += i8PatchTile {
		j1 := j0 + i8PatchTile
		if j1 > n {
			j1 = n
		}
		i := r0
		for ; i+rowBlock-1 < r1; i += rowBlock {
			a0 := a[(i+0)*k : (i+1)*k]
			a1 := a[(i+1)*k : (i+2)*k]
			a2 := a[(i+2)*k : (i+3)*k]
			a3 := a[(i+3)*k : (i+4)*k]
			for j := j0; j < j1; j++ {
				x := b[j*k : (j+1)*k]
				var out [4]int32
				if hasI8SIMD {
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
		// Remainder rows (fewer than rowBlock left) run the single-row scalar
		// dot; integer accumulation keeps them bit-identical regardless.
		for ; i < r1; i++ {
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
