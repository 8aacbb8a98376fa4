package nn

import (
	"tbnet/internal/tensor"
)

// Arena owns the reusable inference scratch of one serving session: the
// float32 convolution kernel's scratch (one buffer per pool worker: a sample
// inside its zero border, see ColScratch) and named activation buffers, one
// per tag. The ForwardInto inference path draws every intermediate it needs
// from an arena, so a session that keeps one arena per replica runs
// steady-state inference without allocating. An activation buffer holds the
// largest batch ever requested under its tag; a smaller batch is a view of
// its front, built once and reused. Reserve grows what a run has drawn to a
// larger batch ahead of traffic.
//
// An arena is not safe for concurrent use: it belongs to exactly one
// inference session (the serving layer already gives every worker a private
// replica, so one arena per replica is race-free by construction).
type Arena struct {
	cols [][]float32
	bufs map[string]*activation

	// Int8-path scratch, one of each per pool worker: quantized input
	// images (HWC for convolutions, flat for depthwise layers), int8 im2row
	// patches, and the int32 GEMM accumulator. Empty until a quantized layer
	// runs, so float32 sessions pay nothing.
	i8bufs [][]int8
	i8cols [][]int8
	i32buf [][]int32

	// rows is the int8 dense layer's batch scratch (DenseRows), the one
	// scratch that scales with the batch rather than with one sample.
	rows denseRows

	// The conv epilogue of the call in flight (see BatchNorm2D.epilogue):
	// rebuilt from the live batch-norm parameters on every fused call, kept
	// here only so that building it allocates nothing.
	ep     tensor.Epilogue
	invStd []float32
}

// activation is one tagged buffer: storage for the largest batch requested
// so far and views[b-1], the [b, dims...] view of its front, built on first
// use. rank is 4 (dims = C, H, W) or 2 (dims = C, 1, 1).
type activation struct {
	rank  int
	dims  [3]int
	data  []float32
	views []*tensor.Tensor
}

// denseRows holds the int8 dense layer's quantized input rows, per-row
// scales and [out, n] accumulator, sized for the widest layer seen.
type denseRows struct {
	in, out int
	q       []int8
	scales  []float32
	acc     []int32
}

// NewArena creates an empty arena sized for the process's kernel worker
// pool.
func NewArena() *Arena {
	w := tensor.Workers()
	return &Arena{
		cols:   make([][]float32, w),
		bufs:   make(map[string]*activation),
		i8bufs: make([][]int8, w),
		i8cols: make([][]int8, w),
		i32buf: make([][]int32, w),
	}
}

// grow returns s if it can hold n elements, else a fresh slice of
// capacity n. Contents are undefined either way.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s
}

// ColScratch returns worker w's float32 scratch grown to at least n floats.
// A convolution draws tensor.ConvScratchLen of it: under the tile kernel the
// run table its panels are packed through (a few hundred entries; nothing
// for a pointwise convolution) and, for a 2×2 stage on the narrow kernel,
// its patch matrix; the Im2Col column matrix the buffer is named after only
// under the portable kernel. A depthwise
// convolution draws tensor.DepthwiseScratchLen: one channel inside its zero
// border. Contents are undefined; callers overwrite before reading.
func (a *Arena) ColScratch(w, n int) []float32 {
	a.cols[w] = grow(a.cols[w], n)
	return a.cols[w][:n]
}

// I8Buf returns worker w's quantized-input scratch grown to at least n
// int8s: one sample's int8 image — for a convolution the pixel-major (HWC)
// plane of tensor.I8PlaneLen bytes, the image inside a border of Pad zero
// pixels that tensor.QuantizeI8HWC rewrites on every call (the scratch is
// shared by convolutions of different geometry); a pointwise convolution has
// no border and hands the plane to the GEMM as the patch matrix directly —
// and in the input's own order for a depthwise layer. The buffer
// has tensor.I8Slack bytes of capacity past n, for the GEMM's rounded-up
// patch loads. Contents are undefined; callers overwrite before reading.
func (a *Arena) I8Buf(w, n int) []int8 {
	a.i8bufs[w] = grow(a.i8bufs[w], n+tensor.I8Slack)
	return a.i8bufs[w][:n]
}

// I8Cols returns worker w's int8 patch scratch (the Im2RowI8HWC
// destination: one (ky, kx, channel)-ordered patch row per output pixel,
// each of its kernel rows one run copied out of the I8Buf plane) grown to at
// least n int8s, with tensor.I8Slack bytes of capacity past them. Pointwise
// convolutions never draw it. Contents are undefined; callers overwrite
// before reading.
func (a *Arena) I8Cols(w, n int) []int8 {
	a.i8cols[w] = grow(a.i8cols[w], n+tensor.I8Slack)
	return a.i8cols[w][:n]
}

// I32Buf returns worker w's int32 accumulator scratch grown to at least n
// elements. Contents are undefined; callers overwrite before reading.
func (a *Arena) I32Buf(w, n int) []int32 {
	a.i32buf[w] = grow(a.i32buf[w], n)
	return a.i32buf[w][:n]
}

// DenseRows returns the int8 dense layer's scratch for a batch of n rows of
// in inputs and out outputs: the quantized rows (n*in, with tensor.I8Slack
// bytes of capacity past them for the GEMM's rounded-up loads), one
// activation scale per row, and the [out, n] int32 accumulator. Unlike the
// per-worker scratch it scales with the batch, so Reserve grows it too.
// Contents are undefined; callers overwrite before reading.
func (a *Arena) DenseRows(n, in, out int) (q []int8, scales []float32, acc []int32) {
	r := &a.rows
	r.in, r.out = max(r.in, in), max(r.out, out)
	r.q = grow(r.q, n*in+tensor.I8Slack)
	r.scales = grow(r.scales, n)
	r.acc = grow(r.acc, n*out)
	return r.q[:n*in], r.scales[:n], r.acc[:n*out]
}

// Tensor4 returns the arena's [n,c,h,w] activation buffer registered under
// tag: a view of the tag's storage, which grows on the first request of a
// batch larger than any before it (or is replaced when the non-batch
// dimensions change, which only happens if a session is re-pointed at a
// different model). Contents are undefined; callers overwrite before reading.
func (a *Arena) Tensor4(tag string, n, c, h, w int) *tensor.Tensor {
	return a.view(tag, 4, [3]int{c, h, w}, n)
}

// Tensor2 is Tensor4 for an [n,c] buffer.
func (a *Arena) Tensor2(tag string, n, c int) *tensor.Tensor {
	return a.view(tag, 2, [3]int{c, 1, 1}, n)
}

// view returns tag's [n, dims...] view, growing its storage to n samples.
func (a *Arena) view(tag string, rank int, dims [3]int, n int) *tensor.Tensor {
	b := a.bufs[tag]
	if b == nil || b.rank != rank || b.dims != dims {
		b = &activation{rank: rank, dims: dims}
		a.bufs[tag] = b
	}
	if n > len(b.views) {
		b.grow(n)
	}
	if b.views[n-1] == nil {
		b.views[n-1] = b.viewOf(n)
	}
	return b.views[n-1]
}

// grow reallocates b's storage for n samples; views of the old storage go.
func (b *activation) grow(n int) {
	b.data = make([]float32, n*b.dims[0]*b.dims[1]*b.dims[2])
	b.views = make([]*tensor.Tensor, n)
}

// viewOf builds the [n, dims...] view of the front of b's storage.
func (b *activation) viewOf(n int) *tensor.Tensor {
	size := n * b.dims[0] * b.dims[1] * b.dims[2]
	data := b.data[:size:size]
	if b.rank == 2 {
		return tensor.FromData(data, n, b.dims[0])
	}
	return tensor.FromData(data, n, b.dims[0], b.dims[1], b.dims[2])
}

// Reserve makes every batch of up to n samples run without allocating, for
// the layers a run has already drawn scratch for: each activation buffer
// grows to n samples with a view per batch size, the dense rows to n rows,
// and every worker's scratch to the largest any worker holds (a one-sample
// run sizes only worker 0's; a batch may fan out to the others).
func (a *Arena) Reserve(n int) {
	for _, b := range a.bufs {
		if n > len(b.views) {
			b.grow(n)
		}
		for i, v := range b.views {
			if v == nil {
				b.views[i] = b.viewOf(i + 1)
			}
		}
	}
	if r := &a.rows; r.in > 0 {
		a.DenseRows(n, r.in, r.out)
	}
	reserveWorkers(a.cols)
	reserveWorkers(a.i8bufs)
	reserveWorkers(a.i8cols)
	reserveWorkers(a.i32buf)
}

// reserveWorkers grows every worker's buffer to the largest one's length.
func reserveWorkers[T any](bufs [][]T) {
	most := 0
	for _, b := range bufs {
		most = max(most, cap(b))
	}
	for w := range bufs {
		bufs[w] = grow(bufs[w], most)
	}
}
