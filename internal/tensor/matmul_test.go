package tensor

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"
)

// refMatMul is the straightforward axpy-ordered reference: for every output
// element the products accumulate in ascending-p order, the exact order the
// blocked kernel must reproduce bit for bit.
func refMatMul(a, b *Tensor) *Tensor {
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		ci := out.data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := a.data[i*k+p]
			bp := b.data[p*n : (p+1)*n]
			for j, bv := range bp {
				ci[j] += av * bv
			}
		}
	}
	return out
}

// sameF32 is the kernels' identity contract: the same bits, or NaN on both
// sides (which NaN survives an add of two is the hardware's operand-order
// rule, not the kernel's arithmetic).
func sameF32(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// unaligned returns a copy of src that starts off floats into a fresh
// backing array, so the kernel's vector loads and stores see addresses that
// are not multiples of 32 bytes.
func unaligned(src []float32, off int) []float32 {
	buf := make([]float32, off+len(src))
	copy(buf[off:], src)
	return buf[off:]
}

// gemmOperands draws an [m,k] and a [k,n] operand; with nonFinite set, a few
// rows of each carry ±Inf, NaN and -0.
func gemmOperands(rng *RNG, m, n, k int, nonFinite bool) (a, b *Tensor) {
	a, b = New(m, k), New(k, n)
	rng.FillNormal(a, 0, 1)
	rng.FillNormal(b, 0, 1)
	if nonFinite {
		special := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), float32(math.Copysign(0, -1)), 0}
		for i := 0; i < len(a.data); i += 7 {
			a.data[i] = special[rng.Intn(len(special))]
		}
		for i := 3; i < len(b.data); i += 11 {
			b.data[i] = special[rng.Intn(len(special))]
		}
	}
	return a, b
}

// f32Kernels lists the float32 levels best first, the order forEachF32Level
// and the benchmarks walk them in.
var f32Kernels = []f32Kernel{f32AVX512, f32AVX, f32Scalar}

// forEachF32Level runs fn as one subtest per float32 level with the
// dispatch pinned to it and skips, by name, a leg whose gate this CPU or
// platform does not pass (withF32Level).
func forEachF32Level(t *testing.T, fn func(t *testing.T)) {
	for _, l := range f32Kernels {
		t.Run(l.String(), func(t *testing.T) {
			if !withF32Level(l, func() { fn(t) }) {
				t.Skipf("no %v kernel on this CPU", l)
			}
		})
	}
}

// atEveryF32Level runs fn once per float32 level this CPU passes, for the
// fuzz targets, whose failures name the level themselves.
func atEveryF32Level(fn func()) {
	for _, l := range f32Kernels {
		withF32Level(l, fn)
	}
}

// TestKernelStatusNamesF32Level: the status line names the float32 tile,
// the narrow kernel (or that it is off) and the pool the dispatch is on at
// every level — with a gate shut, the only way an operator learns the
// daemon runs a slower one.
func TestKernelStatusNamesF32Level(t *testing.T) {
	forEachF32Level(t, func(t *testing.T) {
		got := KernelStatus()
		for _, want := range []string{
			"f32=" + f32Level.String() + " ", " f32narrow=" + narrowKernel(f32Level) + " ", " pool=" + poolKernel(f32Level) + " ",
		} {
			if !strings.Contains(got, want) {
				t.Fatalf("KernelStatus() = %q, want it to contain %q", got, want)
			}
		}
	})
}

// fansOut reports whether the dispatch rule sends an [m,k]@[k,n] product
// across the pool on this host.
func fansOut(m, n, k int) bool {
	rows := f32Rows()
	return Workers() > 1 && (m+rows-1)/rows/gemmGrain(rows, n, k) > 1
}

// splitRows runs rows over [0, m) cut across the pool into chunks of at least
// grain row blocks, whatever the dispatch rule would have decided.
func splitRows(m, grain int, rows func(r0, r1 int)) {
	Parallel((m+rowBlock-1)/rowBlock, grain, func(_, lo, hi int) {
		rows(lo*rowBlock, min(hi*rowBlock, m))
	})
}

// matmulRows is gemmRows over a dense b: the row-range form the split and
// crossover helpers drive.
func matmulRows(cd, ad, bd []float32, n, k, r0, r1 int, ep *Epilogue) {
	gemmRows(cd, ad, denseSource(bd, n), n, k, r0, r1, ep)
}

// gemmSplit cuts the product at every row block across the pool whatever its
// size, so the chunk seams are exercised on shapes the dispatch rule keeps
// on one goroutine.
func gemmSplit(dst, a, b []float32, m, n, k int) {
	splitRows(m, 1, func(r0, r1 int) {
		matmulRows(dst[:m*n], a[:m*k], b[:k*n], n, k, r0, r1, nil)
	})
}

// checkGemm runs the serial, the parallel and the always-split kernel into
// dirty, unaligned destinations and compares every element with refMatMul.
func checkGemm(t testing.TB, a, b *Tensor, off int) {
	t.Helper()
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	want := refMatMul(a, b)
	ad, bd := unaligned(a.data, off), unaligned(b.data, (off+1)%4)
	for name, gemm := range map[string]func(dst, a, b []float32, m, n, k int){
		"serial": GemmSerial, "parallel": GemmParallel, "split": gemmSplit,
	} {
		got := unaligned(make([]float32, m*n), (off+2)%4)
		for i := range got {
			got[i] = 123.5 // stale contents must not leak into the product
		}
		gemm(got, ad, bd, m, n, k)
		for i := range want.data {
			if !sameF32(want.data[i], got[i]) {
				t.Fatalf("[%d,%d]x[%d,%d] %s %v: element %d = %v, reference %v",
					m, k, k, n, name, f32Level, i, got[i], want.data[i])
			}
		}
	}
}

// TestMatMulMatchesReference sweeps every split the kernel has: whole row
// quads and the m%4 remainder, full 16-column tiles, the 9..15 and 1..8
// column tails, k = 0, one k block, exactly two, and two plus one row.
func TestMatMulMatchesReference(t *testing.T) {
	rng := NewRNG(11)
	ms := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 64}
	ns := []int{64, 256, 1024}
	for n := 1; n <= 33; n++ {
		ns = append(ns, n)
	}
	ks := []int{0, 1, 27, 144, 576, 2*kBlock + 1}
	if testing.Short() {
		ns, ks = ns[3:], ks[:4]
	}
	for ci, m := range ms {
		for _, n := range ns {
			for _, k := range ks {
				if m*n*k > 1<<21 && (m+n+k)%3 != 0 {
					continue // a third of the biggest products is plenty
				}
				a, b := gemmOperands(rng, m, n, k, (m+n+k)%4 == 0)
				checkGemm(t, a, b, (ci+n+k)%4)
			}
		}
	}
	// A product past the dispatch threshold, so the pool really is crossed.
	if Workers() > 1 && !fansOut(136, 256, 512) {
		t.Fatalf("136x256x512 no longer fans out (grain %d): pick a bigger product", gemmGrain(f32Rows(), 256, 512))
	}
	a, b := gemmOperands(rng, 136, 256, 512, false)
	checkGemm(t, a, b, 1)
}

// FuzzGemmMatchesReference drives the dispatch forms over arbitrary
// (m, n, k) against the reference, at every float32 level.
func FuzzGemmMatchesReference(f *testing.F) {
	f.Add(uint8(4), uint16(16), uint16(27), uint64(1))
	f.Add(uint8(9), uint16(33), uint16(300), uint64(2))
	f.Add(uint8(64), uint16(4), uint16(576), uint64(3))
	f.Fuzz(func(t *testing.T, m uint8, n, k uint16, seed uint64) {
		mm, nn, kk := int(m)%70+1, int(n)%300+1, int(k)%700
		a, b := gemmOperands(NewRNG(seed), mm, nn, kk, seed%3 == 0)
		atEveryF32Level(func() { checkGemm(t, a, b, int(seed%4)) })
	})
}

// TestGemmEpilogueMatchesSeparatePasses locks the fused epilogue to its
// definition at every float32 level: the plain product, then ApplyRow's
// arithmetic written out as batch norm's and ReLU's own loops.
func TestGemmEpilogueMatchesSeparatePasses(t *testing.T) {
	rng := NewRNG(17)
	for _, sz := range [][3]int{{4, 16, 27}, {9, 21, 40}, {16, 256, 144}, {7, 5, 3}, {64, 4, 2*kBlock + 5}, {3, 40, 0}, {136, 256, 512}} {
		m, n, k := sz[0], sz[1], sz[2]
		a, b := gemmOperands(rng, m, n, k, m == 9)
		vec := func(lo, hi float64) []float32 {
			v := make([]float32, m)
			for i := range v {
				v[i] = float32(lo + (hi-lo)*rng.Float64())
			}
			return v
		}
		for _, relu := range []bool{false, true} {
			ep := &Epilogue{Mean: vec(-1, 1), Gamma: vec(-2, 2), InvStd: vec(0.1, 3), Beta: vec(-1, 1), ReLU: relu}
			want := refMatMul(a, b)
			for i := 0; i < m; i++ {
				mu, g, inv, bt := ep.Mean[i], ep.Gamma[i], ep.InvStd[i], ep.Beta[i]
				row := want.data[i*n : (i+1)*n]
				for j := range row {
					row[j] = g*(row[j]-mu)*inv + bt
				}
				for j, v := range row {
					if relu && !(v > 0) {
						row[j] = 0
					}
				}
			}
			forEachF32Level(t, func(t *testing.T) {
				for name, gemm := range map[string]func(dst, a, b []float32, m, n, k int, ep *Epilogue){
					"serial": GemmFusedSerial, "parallel": GemmFusedParallel,
				} {
					got := unaligned(make([]float32, m*n), 3)
					gemm(got, a.data, b.data, m, n, k, ep)
					for i := range want.data {
						if !sameF32(want.data[i], got[i]) {
							t.Fatalf("[%d,%d]x[%d,%d] relu=%v %s: element %d = %v, want %v",
								m, k, k, n, relu, name, i, got[i], want.data[i])
						}
					}
				}
			})
		}
	}
}

// TestReLUMatchesBranch pins the bit-pattern rectifier to the comparison it
// replaces on every class of input.
func TestReLUMatchesBranch(t *testing.T) {
	nan := math.Float32frombits
	for _, v := range []float32{
		0, float32(math.Copysign(0, -1)), 1, -1, 1e-45, -1e-45, 1e-39, -1e-39,
		math.MaxFloat32, -math.MaxFloat32, float32(math.Inf(1)), float32(math.Inf(-1)),
		nan(0x7fc00000), nan(0xffc00000), nan(0x7f800001), nan(0xff800001), nan(0x7fffffff),
	} {
		var want float32
		if v > 0 {
			want = v
		}
		if got := ReLU(v); math.Float32bits(got) != math.Float32bits(want) {
			t.Errorf("ReLU(%v [%#x]) = %v [%#x], want %v", v, math.Float32bits(v), got, math.Float32bits(got), want)
		}
	}
}

func TestMatMulIntoReusesDirtyDst(t *testing.T) {
	rng := NewRNG(12)
	a, b := New(9, 14), New(14, 6)
	rng.FillNormal(a, 0, 1)
	rng.FillNormal(b, 0, 1)
	want := refMatMul(a, b)
	dst := New(9, 6)
	dst.Fill(123.5) // stale contents must not leak into the product
	MatMulInto(dst, a, b)
	for i := range want.data {
		if want.data[i] != dst.data[i] {
			t.Fatalf("element %d = %v, want %v", i, dst.data[i], want.data[i])
		}
	}
}

func TestTransposeInto(t *testing.T) {
	rng := NewRNG(13)
	a := New(5, 8)
	rng.FillNormal(a, 0, 1)
	dst := New(8, 5)
	dst.Fill(9)
	TransposeInto(dst, a)
	for i := 0; i < 5; i++ {
		for j := 0; j < 8; j++ {
			if got, want := dst.Data()[j*5+i], a.Data()[i*8+j]; got != want {
				t.Fatalf("dst[%d,%d] = %v, want %v", j, i, got, want)
			}
		}
	}
}

func TestParallelCoversRangeOnce(t *testing.T) {
	const n = 1003
	var hits [n]int32
	Parallel(n, 1, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

func TestParallelWorkerIDsAreDense(t *testing.T) {
	var used [64]int32
	Parallel(1024, 1, func(w, lo, hi int) {
		if w < 0 || w >= Workers() {
			t.Errorf("worker id %d outside [0,%d)", w, Workers())
			return
		}
		atomic.AddInt32(&used[w], 1)
	})
	// Every dispatched chunk must carry a distinct worker id (scratch safety).
	for w, c := range used {
		if c > 1 {
			t.Fatalf("worker id %d used for %d chunks", w, c)
		}
	}
}

func TestParallelZeroAndTiny(t *testing.T) {
	Parallel(0, 1, func(_, lo, hi int) { t.Fatal("fn called for n=0") })
	ran := false
	Parallel(1, 8, func(w, lo, hi int) {
		if w != 0 || lo != 0 || hi != 1 {
			t.Fatalf("inline chunk = (%d,%d,%d)", w, lo, hi)
		}
		ran = true
	})
	if !ran {
		t.Fatal("inline chunk not executed")
	}
}
