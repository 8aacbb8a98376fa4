package tensor

// The int8 GEMM kernel serves quantized inference. It is written in
// dot-product orientation: a holds m weight rows of k int8 values, b holds n
// patch rows of k int8 values (Im2RowI8HWC or Im2RowI8 output, with a's rows
// in the matching in-patch order), and dst receives the m×n int32 products
// dst[i*n+j] = a_i · b_j. Accumulation is 32-bit integer arithmetic that
// wraps and never saturates, so — unlike the float32 kernel, which must
// control rounding order — every dispatch path (the three amd64 vector
// kernels, the scalar fallback, serial, parallel) is bit-identical by
// construction, for every byte value including -128.
//
// Below AMX, blocking mirrors the float32 kernel: four weight rows are
// computed per streamed patch row (register blocking; the VNNI kernel holds
// four patch rows as well, a 4×4 tile of accumulators), and the patch rows
// are tiled so a tile of b stays cache-resident while the row quads sweep
// it. The AMX kernel reads the weights packed into tile blocks (I8Weights)
// and computes 16 patch rows × up to 64 weight rows per pass.

// i8Kernel names an int8 micro kernel. The values are ordered: a CPU that
// passes the gate of one also runs every kernel below it, which is what lets
// the tests walk down from the detected level. BenchmarkGemmI8Shapes is the
// shape-matched rung — the eight conv products of one VGG18-S branch against
// weights packed once, µs on the reference box. The first four columns are
// medians of five from one session (the vector kernels and the parent
// commit's binary alternated; the scalar column from an earlier session the
// same day). The last two are medians of five from a later session on the
// same box, busier then, the two kernels interleaved round by round; VNNI
// read about twice its first figure there, so compare AMX with the column
// beside it:
//
//	m × n × k      scalar-dot4   avx2-dot4 (at the parent)   avx512vnni-4x4 | vnni    amx-int8
//	16×256× 27         59           9.1  (23.0)                2.5          |  4.41    1.25
//	16×256×144        300          19.7  (21.1)                5.1          | 11.73    2.07
//	32× 64×144        152          10.3  (11.4)                2.4          |  4.75    1.07
//	32× 64×288        283          17.4  (18.8)                3.6          |  6.71    1.32
//	48× 16×288        106           6.4   (6.9)                1.5          |  3.23    0.59
//	48× 16×432        158           9.6   (9.6)                2.4          |  4.78    0.57
//	64×  4×432         53           3.1   (3.2)                1.01         |  2.30    0.77
//	64×  4×576         71           4.1   (4.3)                1.31         |  2.70    1.15
//	one branch       1182          79.7  (98.3)               19.9          | 40.6     8.8
//
// Only k = 27 has a k%16 tail among them: eleven of its 27 bytes ran one at
// a time at the parent; the rest of the AVX2 column's gain is the one-store
// reduction. The row sums the VNNI kernel forms per call are four vpdpbusd
// per step beside a tile's sixteen — a fifth of the n = 4 stages' work,
// ≈ 0.2 µs of 1.31 — so they stay in the kernel, not on the layer. An AMX
// call costs ≈ 0.3 µs however small the product (LDTILECFG, TILERELEASE and
// the call itself, read off a 16×16×4 product), which is most of the n = 4
// stages' time; the transpose of each 16×16 result is most of the k = 27
// stage's.
type i8Kernel int

const (
	i8Scalar i8Kernel = iota // dot4I8Scalar
	i8AVX2                   // dot4I8SIMD: vpmovsxbw + vpmaddwd, one patch row per call
	i8VNNI                   // gemmI8TileVNNI: 4×4 vpdpbusd tile, patch-row loop in assembly
	i8AMX                    // gemmI8AMX: tdpbssd on AMX tiles against weights packed by PackI8Weights
)

func (l i8Kernel) String() string {
	return [...]string{"scalar-dot4", "avx2-dot4", "avx512vnni-4x4", "amx-int8"}[l]
}

// i8PatchTile is the patch-tile height: this many b rows are kept resident
// while consecutive weight-row quads sweep them.
const i8PatchTile = 256

// maxI8DotLen bounds the shared dimension of the int8 kernel. No kernel
// needs the bound to be correct: each is exact modulo 2^32 at any length
// (int8×int8 products and their pairwise and four-wise sums fit the word and
// dword lanes the vector kernels form them in, and every add after that
// wraps), so all four return the true dot product whenever it fits an
// int32 — always for k ≤ 131 071 (|a_p·b_p| ≤ 2^14), and for k ≤ 133 144
// when neither operand holds -128, which is what the quantizers emit — and
// the same wrapped value beyond. The bound only keeps the wrapped regime far
// away: conv and dense weight rows are a few thousand at most (the serial
// loader caps whole tensors at 2^26 elems).
const maxI8DotLen = 1 << 23

// I8Weights is an m×k int8 weight matrix in the layout the int8 kernel reads,
// chosen once by PackI8Weights: row-major below i8AMX, and at i8AMX 16-row
// VNNI tile blocks — block b holds rows 16b..16b+15, and within it each
// 64-byte tile row holds four consecutive k bytes of each of the sixteen
// rows, k zero-padded to a multiple of four and missing rows zero-filled.
// A packed matrix is immutable and safe to share between goroutines.
type I8Weights struct {
	m, k int
	kp   int // k rounded up to a multiple of 4 (AMX layout only)
	amx  bool
	data []int8
}

// I8Slack is how many bytes past its n·k patch bytes the b operand of
// GemmI8PackedSerial and GemmI8PackedParallel must have readable, in its
// capacity: at i8AMX a patch row's last tile load is rounded up to whole
// dwords, so it reads up to three bytes past the row (they meet zero
// weight padding and add nothing). nn.Arena's int8 buffers carry it; a b
// without it is copied, on every call, into one that does.
const I8Slack = 3

// PackI8Weights lays out the m×k matrix a for the int8 kernel this process
// runs, in one pass. Each row of a is channel-major — k/taps channels of
// taps window taps each, the order an artifact stores a convolution in —
// and the kernel reads it tap-major, (tap, channel), the order Im2RowI8HWC
// lays patches out in; taps = 1 (a dense layer, a 1×1 convolution) is the
// identity. Below i8AMX the packed form is the permuted matrix, row-major,
// and for taps = 1 that is a itself, which the caller must no longer
// modify; at i8AMX it is a copy in tile blocks, and a may be dropped.
// Either way the pack allocates at most one buffer, of the weights' size.
func PackI8Weights(a []int8, m, k, taps int) *I8Weights {
	a = a[:m*k]
	if k%taps != 0 {
		panic("tensor: int8 weight rows are not whole channels of taps")
	}
	amx := i8Level == i8AMX && k != 0 && k <= maxI8DotLen
	if !amx && taps == 1 {
		return &I8Weights{m: m, k: k, data: a}
	}
	// Element (i, p) of the packed matrix lives p/4·group + p%4 past its
	// row's first: row-major below AMX (group 4), and at AMX in the 64-byte
	// tile row of its four-byte group, k zero-padded to kp.
	w, size, group := &I8Weights{m: m, k: k}, m*k, 4
	if amx {
		w.kp, w.amx, group = (k+3)&^3, true, 64
		size = (m + 15) / 16 * 16 * w.kp
	}
	w.data = make([]int8, size)
	c := k / taps
	for i := 0; i < m; i++ {
		first := i * k
		if amx {
			first = i/16*16*w.kp + i%16*4
		}
		dst, row := w.data[first:], a[i*k:(i+1)*k]
		p := 0
		for t := 0; t < taps; t++ {
			for ch := 0; ch < c; ch++ {
				dst[p>>2*group+p&3] = row[ch*taps+t]
				p++
			}
		}
	}
	return w
}

// GemmI8PackedParallel computes dst[i*n+j] = w_i · b_j for the m×k packed
// matrix w and the n×k row-major patch matrix b (with I8Slack bytes of
// capacity past it), over the worker pool under GemmParallel's dispatch rule
// (gemmGrain). Like GemmParallel it must not be called from inside a
// Parallel region (use GemmI8PackedSerial there).
func GemmI8PackedParallel(dst []int32, w *I8Weights, b []int8, n int) {
	b = checkI8Dims(dst, w, b, n)
	unit := w.rowUnit()
	blocks := (w.m + unit - 1) / unit
	grain := gemmGrain(unit, n, w.k)
	if blocks/grain <= 1 || Workers() == 1 {
		gemmI8Rows(dst, w, b, n, 0, w.m)
		return
	}
	Parallel(blocks, grain, func(_, lo, hi int) {
		gemmI8Rows(dst, w, b, n, lo*unit, min(hi*unit, w.m))
	})
}

// GemmI8PackedSerial is GemmI8PackedParallel on the calling goroutine,
// bit-identical to it; per-sample inference paths already running inside
// the worker pool use this form.
func GemmI8PackedSerial(dst []int32, w *I8Weights, b []int8, n int) {
	b = checkI8Dims(dst, w, b, n)
	gemmI8Rows(dst, w, b, n, 0, w.m)
}

// GemmI8Parallel computes dst[i*n+j] = a_i · b_j, where a is m×k and b is
// n×k, both row-major int8: PackI8Weights(a), then GemmI8PackedParallel, so
// the product runs on the same kernel a layer's packed weights do. Callers
// that multiply one a many times pack it once themselves.
func GemmI8Parallel(dst []int32, a, b []int8, m, n, k int) {
	GemmI8PackedParallel(dst, PackI8Weights(a, m, k, 1), b, n)
}

// checkI8Dims bounds the operands and returns b, copied into a buffer with
// I8Slack bytes of capacity past n·k when the tile kernel's rounded-up
// loads would otherwise read beyond it.
func checkI8Dims(dst []int32, w *I8Weights, b []int8, n int) []int8 {
	if w.k > maxI8DotLen {
		panic("tensor: int8 GEMM shared dimension too large")
	}
	_, b = dst[:w.m*n], b[:n*w.k]
	if w.amx && w.kp != w.k && cap(b)-len(b) < w.kp-w.k {
		b = append(make([]int8, 0, len(b)+I8Slack), b...)
	}
	return b
}

// rowUnit is the number of weight rows the kernel computes together, the
// unit the pool splits a product's rows in.
func (w *I8Weights) rowUnit() int {
	if w.amx {
		return 16
	}
	return rowBlock
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

// i8AMXArgs is what one gemmI8AMX call reads; the assembly addresses the
// fields by offset, so the layout is part of its contract. One call runs
// every channel block of the packed weights against pbs patch blocks of the
// height the tile configuration gives (16, or the n%16 rows of the last).
type i8AMXArgs struct {
	cfg     [64]byte   // 0: the LDTILECFG image (see amxConfig)
	dst     *int32     // 64: product of weight row 0 and patch row 0; advanced per channel group
	w       *int8      // 72: packed channel block 0
	b       *int8      // 80: first patch row, row stride k
	ldc     int        // 88: dst row stride in bytes (4·n)
	k       int        // 96: patch row stride in bytes
	full    int        // 104: 64-byte k chunks
	tail    int        // 112: bytes in the last, partial k chunk (kp%64), or 0
	wblk    int        // 120: bytes per packed channel block (16·kp)
	blocks  int        // 128: channel blocks, at least 1
	mlast   int        // 136: live rows in the last channel block, 1..16
	pbs     int        // 144: patch blocks, at least 1
	lanes   uint64     // 152: opmask of the live patch rows of a block
	scratch [256]int32 // 160: one accumulator tile, stored for the transpose
}

// amxConfig fills the tile configuration for patch blocks of h rows and a k
// chunking of full 64-byte chunks plus a tail of tail bytes: accumulators
// tmm0..tmm3 (h × 16 dwords), patch tiles tmm4 (h × 64 bytes) and tmm5
// (h × tail), weight tiles tmm6 (16 × 64) and tmm7 (tail/4 × 64). A tile
// the product does not use stays unconfigured (zero).
func amxConfig(cfg *[64]byte, h, tail int) {
	*cfg = [64]byte{0: 1} // palette 1
	set := func(t, rows, colsb int) {
		cfg[16+2*t], cfg[17+2*t] = byte(colsb), byte(colsb>>8)
		cfg[48+t] = byte(rows)
	}
	for t := 0; t < 4; t++ {
		set(t, h, 64)
	}
	set(4, h, 64)
	set(6, 16, 64)
	if tail > 0 {
		set(5, h, tail)
		set(7, tail/4, 64)
	}
}

// gemmI8Rows computes output rows [r0, r1) of the int8 product; r0 is a
// multiple of w.rowUnit().
func gemmI8Rows(dst []int32, w *I8Weights, b []int8, n, r0, r1 int) {
	k := w.k
	if k == 0 {
		clear(dst[r0*n : r1*n])
		return
	}
	if w.amx {
		gemmI8AMXRows(dst, w, b, n, r0, r1)
		return
	}
	a := w.data
	quads := r0 + (r1-r0)/rowBlock*rowBlock
	for j0 := 0; j0 < n; j0 += i8PatchTile {
		j1 := min(j0+i8PatchTile, n)
		if i8Level >= i8VNNI {
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

// gemmI8AMXRows computes output rows [r0, r1) on AMX tiles, r0 a multiple
// of 16: one gemmI8AMX call — one LDTILECFG — for the full 16-row patch
// blocks, and one more for the n%16 rows left, whose tiles are that high.
func gemmI8AMXRows(dst []int32, w *I8Weights, b []int8, n, r0, r1 int) {
	blocks := (r1 - r0 + 15) / 16
	t := i8AMXArgs{
		dst:    &dst[r0*n],
		w:      &w.data[r0*w.kp],
		ldc:    4 * n,
		k:      w.k,
		full:   w.kp / 64,
		tail:   w.kp % 64,
		wblk:   16 * w.kp,
		blocks: blocks,
		mlast:  r1 - r0 - 16*(blocks-1),
	}
	if full := n / 16; full > 0 {
		amxConfig(&t.cfg, 16, t.tail)
		t.b, t.pbs, t.lanes = &b[0], full, 0xFFFF
		gemmI8AMX(&t)
	}
	if h := n % 16; h > 0 {
		amxConfig(&t.cfg, h, t.tail)
		t.dst, t.b, t.pbs, t.lanes = &dst[r0*n+n-h], &b[(n-h)*w.k], 1, 1<<h-1
		gemmI8AMX(&t)
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
