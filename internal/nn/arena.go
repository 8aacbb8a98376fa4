package nn

import (
	"tbnet/internal/tensor"
)

// Arena owns the reusable inference scratch of one serving session: the
// float32 convolution kernel's scratch (one buffer per pool worker: a sample
// inside its zero border, see ColScratch) and named activation buffers keyed
// by (tag, batch). The ForwardInto inference path draws every
// intermediate it needs from an arena, so a session that keeps one arena per
// replica runs steady-state inference without allocating — each buffer is
// sized once, on the first request of its batch size, and reused forever
// after.
//
// An arena is not safe for concurrent use: it belongs to exactly one
// inference session (the serving layer already gives every worker a private
// replica, so one arena per replica is race-free by construction).
type Arena struct {
	cols [][]float32
	bufs map[arenaKey]*tensor.Tensor

	// Int8-path scratch, one of each per pool worker: quantized input
	// images (HWC for convolutions, flat for dense and depthwise layers),
	// int8 im2row patches, and the int32 GEMM accumulator. Empty until a
	// quantized layer runs, so float32 sessions pay nothing.
	i8bufs [][]int8
	i8cols [][]int8
	i32buf [][]int32

	// The conv epilogue of the call in flight (see BatchNorm2D.epilogue):
	// rebuilt from the live batch-norm parameters on every fused call, kept
	// here only so that building it allocates nothing.
	ep     tensor.Epilogue
	invStd []float32
}

// arenaKey identifies one activation buffer: the owning layer's tag plus the
// batch size, so micro-batches of different sizes get distinct, stable
// buffers.
type arenaKey struct {
	tag   string
	batch int
}

// NewArena creates an empty arena sized for the process's kernel worker
// pool.
func NewArena() *Arena {
	w := tensor.Workers()
	return &Arena{
		cols:   make([][]float32, w),
		bufs:   make(map[arenaKey]*tensor.Tensor),
		i8bufs: make([][]int8, w),
		i8cols: make([][]int8, w),
		i32buf: make([][]int32, w),
	}
}

// ColScratch returns worker w's float32 scratch grown to at least n floats.
// A convolution draws tensor.ConvScratchLen of it: under the tile kernel the
// run table its panels are packed through (a few hundred entries; nothing
// for a pointwise convolution) and, for a 2×2 stage on the narrow kernel,
// its patch matrix; the Im2Col column matrix the buffer is named after only
// under the portable kernel. A depthwise
// convolution draws tensor.DepthwiseScratchLen: one channel inside its zero
// border. The int8 dense layer keeps its per-row activation scales in
// worker 0's. Contents are undefined; callers overwrite before reading.
func (a *Arena) ColScratch(w, n int) []float32 {
	if cap(a.cols[w]) < n {
		a.cols[w] = make([]float32, n)
	}
	return a.cols[w][:n]
}

// I8Buf returns worker w's quantized-input scratch grown to at least n
// int8s: one sample's int8 image — for a convolution the pixel-major (HWC)
// plane of tensor.I8PlaneLen bytes, the image inside a border of Pad zero
// pixels that tensor.QuantizeI8HWC rewrites on every call (the scratch is
// shared by convolutions of different geometry); a pointwise convolution has
// no border and hands the plane to the GEMM as the patch matrix directly —
// and in the input's own order for dense and depthwise layers. The buffer
// has tensor.I8Slack bytes of capacity past n, for the GEMM's rounded-up
// patch loads. Contents are undefined; callers overwrite before reading.
func (a *Arena) I8Buf(w, n int) []int8 {
	if cap(a.i8bufs[w]) < n+tensor.I8Slack {
		a.i8bufs[w] = make([]int8, n+tensor.I8Slack)
	}
	return a.i8bufs[w][:n]
}

// I8Cols returns worker w's int8 patch scratch (the Im2RowI8HWC
// destination: one (ky, kx, channel)-ordered patch row per output pixel,
// each of its kernel rows one run copied out of the I8Buf plane) grown to at
// least n int8s, with tensor.I8Slack bytes of capacity past them. Pointwise
// convolutions never draw it. Contents are undefined; callers overwrite
// before reading.
func (a *Arena) I8Cols(w, n int) []int8 {
	if cap(a.i8cols[w]) < n+tensor.I8Slack {
		a.i8cols[w] = make([]int8, n+tensor.I8Slack)
	}
	return a.i8cols[w][:n]
}

// I32Buf returns worker w's int32 accumulator scratch grown to at least n
// elements. Contents are undefined; callers overwrite before reading.
func (a *Arena) I32Buf(w, n int) []int32 {
	if cap(a.i32buf[w]) < n {
		a.i32buf[w] = make([]int32, n)
	}
	return a.i32buf[w][:n]
}

// Tensor4 returns the arena's [n,c,h,w] activation buffer registered under
// tag, allocating it on first use (or when the non-batch dimensions change,
// which only happens if a session is re-pointed at a different model).
// Contents are undefined; callers overwrite before reading.
func (a *Arena) Tensor4(tag string, n, c, h, w int) *tensor.Tensor {
	k := arenaKey{tag: tag, batch: n}
	if t := a.bufs[k]; t != nil && t.Rank() == 4 &&
		t.Dim(1) == c && t.Dim(2) == h && t.Dim(3) == w {
		return t
	}
	t := tensor.New(n, c, h, w)
	a.bufs[k] = t
	return t
}

// Tensor2 returns the arena's [n,c] buffer registered under tag, allocating
// it on first use. Contents are undefined; callers overwrite before reading.
func (a *Arena) Tensor2(tag string, n, c int) *tensor.Tensor {
	k := arenaKey{tag: tag, batch: n}
	if t := a.bufs[k]; t != nil && t.Rank() == 2 && t.Dim(1) == c {
		return t
	}
	t := tensor.New(n, c)
	a.bufs[k] = t
	return t
}
