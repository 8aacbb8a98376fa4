// Package serial persists the finalized deployment artifact in a compact
// little-endian binary format. A model vendor runs the TBNet pipeline
// offline and saves one artifact: the M_R branch the device's normal world
// runs, the M_T branch that goes into the TEE's secure storage, and the
// placement metadata (backend name and deployed sample shape) a serving
// host needs to bring the model back up without out-of-band configuration.
//
// # Format versions
//
// Every file starts with an 8-byte header: a 4-byte magic identifying the
// artifact kind and a 4-byte format version. A SHA-256 digest of the body
// follows it as a trailer, so corruption of the payload — not just of the
// structure — is detected at load time instead of surfacing as silently
// wrong weights.
//
//   - Version 2 is header + body + trailer, with float32 two-branch
//     weights.
//   - Version 3 adds a precision byte after the sample shape and, for int8
//     artifacts, replaces the float32 weights with the quantized storage
//     form: weight-elided model bodies plus int8 tensors and per-channel
//     scales (quantized.go).
//
// SaveDeployment emits version 2 for float32 artifacts and version 3 only
// when the artifact carries quantized weights; LoadDeployment reads both.
// Any other version fails with ErrBadFormat. SaveModel writes one staged
// model in the same version-2 framing.
package serial

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"

	"tbnet/internal/core"
	"tbnet/internal/nn"
	"tbnet/internal/quant"
	"tbnet/internal/tee"
	"tbnet/internal/tensor"
	"tbnet/internal/zoo"
)

const (
	magicModel  = 0x4d4e4254 // "TBNM"
	magicDeploy = 0x444e4254 // "TBND"

	// version is the format SaveModel writes, and SaveDeployment for float32
	// artifacts.
	version = 2
	// deployVersion is the newest deployment-artifact format; SaveDeployment
	// emits it only for quantized artifacts (float32 artifacts stay at
	// version 2, bit-identical to earlier releases).
	deployVersion = 3
	// minVersion is the oldest format LoadDeployment reads: the first
	// deployment artifact was version 2.
	minVersion = 2

	stageConvBlock = 1
	stageResBlock  = 2
	stageDWBlock   = 3
)

// ErrBadFormat is returned for corrupt, truncated, or mismatched input,
// including files whose payload fails its integrity checksum.
var ErrBadFormat = errors.New("serial: bad format")

// maxTensorElems bounds any single parameter tensor a loader will allocate
// (64 Mi float32 elements = 256 MiB), so corrupted dimension fields fail
// with ErrBadFormat instead of attempting an absurd allocation.
const maxTensorElems = 1 << 26

// Artifact is a fully described finalized deployment: the two-branch weights
// plus the placement metadata — which registered hardware backend the vendor
// sized it for and the [N,C,H,W] sample shape the secure working set was
// planned around. It is what SaveDeployment ships and LoadDeployment
// recovers; the registry stores one Artifact per named model.
type Artifact struct {
	// TB is the finalized two-branch model (M_R, M_T, channel alignment),
	// float32 or armed for int8 (quant.Armed): its layers set the precision.
	TB *core.TwoBranch
	// Device is the registered name of the hardware backend the deployment
	// was sized against (e.g. "rpi3"); resolve it with tee.ByName or
	// tbnet.DeviceByName when re-deploying.
	Device string
	// SampleShape is the [N,C,H,W] input shape the deployment plan was sized
	// for; N bounds the batch capacity of the restored session.
	SampleShape []int
}

// Precision returns the numeric serving path of the artifact's model: "int8"
// when its branches are armed (quant.Armed), else "f32".
func (a *Artifact) Precision() string {
	if a.TB != nil && a.TB.MT != nil && quant.Armed(a.TB.MT) {
		return precInt8
	}
	return precF32
}

// Deploy places the artifact on device — nil means the backend registered
// under the name it was saved for, and a name this build does not register
// fails with an error wrapping tee.ErrUnknownDevice — at the precision it was
// saved for (core.Deploy reads it off the branches). It is the one
// artifact→deployment function every restore path (file, registry,
// swap-over-HTTP) goes through.
func (a *Artifact) Deploy(device tee.Device) (*core.Deployment, error) {
	if device == nil {
		d, err := tee.ByName(a.Device)
		if err != nil {
			return nil, fmt.Errorf("artifact targets device %q: %w", a.Device, err)
		}
		device = d
	}
	return core.Deploy(a.TB, device, a.SampleShape)
}

// writer serializes little-endian primitives through a buffered sink,
// optionally teeing the checksummed section of the stream into a digest.
type writer struct {
	buf *bufio.Writer
	w   io.Writer // buf, or a tee into h while a checksummed section is open
	h   hash.Hash
	err error
}

func newWriter(out io.Writer) *writer {
	buf := bufio.NewWriter(out)
	return &writer{buf: buf, w: buf}
}

// beginChecksum starts the integrity-protected section: everything written
// until endChecksum feeds the digest.
func (w *writer) beginChecksum() {
	w.h = sha256.New()
	w.w = io.MultiWriter(w.buf, w.h)
}

// endChecksum closes the protected section and writes the digest trailer
// (the trailer itself is not hashed).
func (w *writer) endChecksum() {
	if w.h == nil {
		return
	}
	w.w = w.buf
	sum := w.h.Sum(nil)
	w.h = nil
	if w.err != nil {
		return
	}
	_, w.err = w.buf.Write(sum)
}

func (w *writer) flush() error {
	if w.err != nil {
		return w.err
	}
	return w.buf.Flush()
}

func (w *writer) u32(v uint32) {
	if w.err != nil {
		return
	}
	w.err = binary.Write(w.w, binary.LittleEndian, v)
}

func (w *writer) i32(v int) { w.u32(uint32(int32(v))) }

func (w *writer) u8(v uint8) {
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write([]byte{v})
}

func (w *writer) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	if w.err != nil {
		return
	}
	_, w.err = io.WriteString(w.w, s)
}

func (w *writer) floats(t *tensor.Tensor) {
	w.u32(uint32(t.Size()))
	if w.err != nil {
		return
	}
	w.err = binary.Write(w.w, binary.LittleEndian, t.Data())
}

// reader deserializes little-endian primitives, optionally teeing the
// checksummed section into a digest for trailer verification.
type reader struct {
	buf *bufio.Reader
	r   io.Reader // buf, or a tee into h while a checksummed section is open
	h   hash.Hash
	err error
	// scratch is the one decode buffer every fixed-width read goes through,
	// so a load allocates nothing per tensor beyond the tensor itself.
	scratch [8 << 10]byte
	// left counts the input bytes not yet consumed when the input reports
	// its length (a bytes.Reader), and is unbounded otherwise; see claim.
	left int64
}

func newReader(in io.Reader) *reader {
	buf := bufio.NewReader(in)
	r := &reader{buf: buf, r: buf, left: math.MaxInt64}
	if l, ok := in.(interface{ Len() int }); ok {
		r.left = int64(l.Len())
	}
	return r
}

// claim reports whether n more bytes of input remain, recording a format
// error otherwise. Every tensor read claims its bytes before allocating, so
// a few hostile header bytes cannot make the loader allocate what the input
// could never fill. (Strings and alignment maps have small fixed caps.)
func (r *reader) claim(n int64) bool {
	if r.err == nil && n > r.left {
		r.err = fmt.Errorf("%w: truncated input: %d bytes declared, %d left", ErrBadFormat, n, r.left)
	}
	return r.err == nil
}

// beginChecksum starts hashing everything read, for verifyChecksum.
func (r *reader) beginChecksum() {
	r.h = sha256.New()
	r.r = io.TeeReader(r.buf, r.h)
}

// verifyChecksum reads the 32-byte trailer (unhashed) and compares it to the
// digest of the section consumed since beginChecksum.
func (r *reader) verifyChecksum() {
	if r.h == nil {
		return
	}
	want := r.h.Sum(nil)
	r.h = nil
	r.r = r.buf
	var got [sha256.Size]byte
	if r.err != nil {
		return
	}
	if _, err := io.ReadFull(r.buf, got[:]); err != nil {
		r.err = fmt.Errorf("%w: missing integrity trailer: %v", ErrBadFormat, err)
		return
	}
	if !bytes.Equal(want, got[:]) {
		r.err = fmt.Errorf("%w: payload checksum mismatch", ErrBadFormat)
	}
}

// header checks the deployment magic and returns the format version, one
// of minVersion..deployVersion.
func (r *reader) header() uint32 {
	if got := r.u32(); r.err == nil && got != magicDeploy {
		r.err = fmt.Errorf("%w: not a TBNet deployment file", ErrBadFormat)
		return 0
	}
	v := r.u32()
	if r.err == nil && (v < minVersion || v > deployVersion) {
		r.err = fmt.Errorf("%w: unsupported version %d (this build reads %d..%d)",
			ErrBadFormat, v, minVersion, deployVersion)
	}
	return v
}

// fill reads exactly len(b) bytes, recording a truncation as the error.
func (r *reader) fill(b []byte) bool {
	if r.err != nil {
		return false
	}
	if _, err := io.ReadFull(r.r, b); err != nil {
		r.err = fmt.Errorf("%w: truncated input: %v", ErrBadFormat, err)
		return false
	}
	r.left -= int64(len(b))
	return true
}

func (r *reader) u32() uint32 {
	b := r.scratch[:4]
	if !r.fill(b) {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) i32() int { return int(int32(r.u32())) }

func (r *reader) u8() uint8 {
	b := r.scratch[:1]
	if !r.fill(b) {
		return 0
	}
	return b[0]
}

func (r *reader) bool() bool { return r.u8() != 0 }

func (r *reader) str() string {
	n := r.u32()
	if r.err != nil {
		return ""
	}
	if n > 1<<20 {
		r.err = fmt.Errorf("%w: unreasonable string length %d", ErrBadFormat, n)
		return ""
	}
	buf := make([]byte, n)
	if !r.fill(buf) {
		return ""
	}
	return string(buf)
}

// f32sInto decodes len(dst) little-endian float32s, a scratch buffer at a
// time.
func (r *reader) f32sInto(dst []float32) {
	for len(dst) > 0 {
		n := min(len(dst), len(r.scratch)/4)
		b := r.scratch[:4*n]
		if !r.fill(b) {
			return
		}
		for i := range dst[:n] {
			dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
		}
		dst = dst[n:]
	}
}

// weights reads a float32 [rows, cols] weight matrix.
func (r *reader) weights(rows, cols int) *tensor.Tensor {
	w := tensor.New(rows, cols)
	r.floatsInto(w)
	return w
}

// floatsInto reads a float vector and requires it to match dst's size.
func (r *reader) floatsInto(dst *tensor.Tensor) {
	n := int(r.u32())
	if r.err != nil {
		return
	}
	if n != dst.Size() {
		r.err = fmt.Errorf("%w: tensor size %d, expected %d", ErrBadFormat, n, dst.Size())
		return
	}
	r.f32sInto(dst.Data())
}

// tensorBytes is the wire size of a float vector of n elements, length
// prefix included, when present is set, and 0 otherwise.
func tensorBytes(present bool, n int64) int64 {
	if !present {
		return 0
	}
	return 4 + 4*n
}

// conv writes a convolution; elide skips the float32 weight tensor (quantized
// artifacts carry the weights as int8 payloads instead). Bias stays float32
// in both forms.
func (w *writer) conv(c *nn.Conv2D, elide bool) {
	w.i32(c.InC)
	w.i32(c.OutC)
	w.i32(c.KH)
	w.i32(c.Stride)
	w.i32(c.Pad)
	w.bool(c.B != nil)
	if !elide {
		w.floats(c.Weight().Value)
	}
	if c.B != nil {
		w.floats(c.B.Value)
	}
}

// conv reads a convolution written with the matching elide flag. An elided
// convolution comes back with no weights at all, for quant.Arm to give it
// its int8 ones: it allocates nothing its bytes do not pay for.
func (r *reader) conv(name string, elide bool) *nn.Conv2D {
	inC, outC := r.i32(), r.i32()
	k, stride, pad := r.i32(), r.i32(), r.i32()
	hasBias := r.bool()
	if r.err != nil {
		return nil
	}
	if inC <= 0 || outC <= 0 || k <= 0 || inC > 1<<16 || outC > 1<<16 ||
		k > 64 || stride < 1 || stride > 64 || pad < 0 || pad > 64 {
		r.err = fmt.Errorf("%w: conv dims %dx%d k%d s%d p%d", ErrBadFormat, inC, outC, k, stride, pad)
		return nil
	}
	if int64(inC)*int64(outC)*int64(k)*int64(k) > maxTensorElems {
		r.err = fmt.Errorf("%w: conv weight %dx%dx%dx%d too large", ErrBadFormat, outC, inC, k, k)
		return nil
	}
	if !r.claim(tensorBytes(!elide, int64(inC)*int64(outC)*int64(k)*int64(k)) + tensorBytes(hasBias, int64(outC))) {
		return nil
	}
	c := nn.NewConv2D(name, inC, outC, k, stride, pad, hasBias, nil)
	if !elide {
		c.SetWeights(r.weights(outC, inC*k*k))
	}
	if hasBias {
		r.floatsInto(c.B.Value)
	}
	return c
}

func (w *writer) bn(b *nn.BatchNorm2D) {
	w.i32(b.C)
	w.floats(b.Gamma.Value)
	w.floats(b.Beta.Value)
	w.floats(b.RunMean)
	w.floats(b.RunVar)
}

func (r *reader) bn(name string) *nn.BatchNorm2D {
	c := r.i32()
	if r.err != nil {
		return nil
	}
	if c <= 0 || c > 1<<16 {
		r.err = fmt.Errorf("%w: bn width %d", ErrBadFormat, c)
		return nil
	}
	if !r.claim(4 * tensorBytes(true, int64(c))) {
		return nil
	}
	b := nn.NewBatchNorm2D(name, c)
	r.floatsInto(b.Gamma.Value)
	r.floatsInto(b.Beta.Value)
	r.floatsInto(b.RunMean)
	r.floatsInto(b.RunVar)
	return b
}

// SaveModel writes a staged model (version 2: checksummed payload).
func SaveModel(out io.Writer, m *zoo.Model) error {
	w := newWriter(out)
	w.u32(magicModel)
	w.u32(version)
	w.beginChecksum()
	saveModelBody(w, m, false)
	w.endChecksum()
	return w.flush()
}

// saveModelBody writes a staged model; elide skips every float32 weight
// tensor (conv, depthwise, head) for quantized models, keeping biases and
// batch-norm parameters.
func saveModelBody(w *writer, m *zoo.Model, elide bool) {
	w.str(m.Name)
	w.str(m.Arch)
	w.i32(m.InC)
	w.i32(m.Classes)
	w.i32(len(m.Stages))
	for _, s := range m.Stages {
		switch b := s.(type) {
		case *zoo.ConvBlock:
			w.u8(stageConvBlock)
			w.str(b.Name())
			w.i32(b.PoolK())
			w.bool(b.OutFixed)
			w.conv(b.Conv, elide)
			w.bn(b.BN)
		case *zoo.DWBlock:
			w.u8(stageDWBlock)
			w.str(b.Name())
			w.i32(b.DW.C)
			w.i32(b.DW.K)
			w.i32(b.DW.Stride)
			w.i32(b.DW.Pad)
			if !elide {
				w.floats(b.DW.Weight().Value)
			}
			w.bn(b.BN1)
			w.conv(b.PW, elide)
			w.bn(b.BN2)
		case *zoo.ResBlock:
			w.u8(stageResBlock)
			w.str(b.Name())
			w.bool(b.WithSkip)
			w.bool(b.Down != nil)
			w.conv(b.Conv1, elide)
			w.bn(b.BN1)
			w.conv(b.Conv2, elide)
			w.bn(b.BN2)
			if b.Down != nil {
				w.conv(b.Down, elide)
				w.bn(b.DownBN)
			}
		default:
			w.err = fmt.Errorf("serial: unknown stage type %T", s)
			return
		}
	}
	// Head.
	w.i32(m.Head.FC.In)
	w.i32(m.Head.FC.Out)
	if !elide {
		w.floats(m.Head.FC.Weight().Value)
	}
	w.floats(m.Head.FC.B.Value)
}

// loadModelBody reads a staged model written with the matching elide flag;
// an elided layer (conv, depthwise, head) comes back with no weights, for
// loadInt8Branch to arm. Every layer is built once, from its bytes: the
// loader draws no random weights and builds no layer it replaces.
func loadModelBody(r *reader, elide bool) *zoo.Model {
	m := &zoo.Model{}
	m.Name = r.str()
	m.Arch = r.str()
	m.InC = r.i32()
	m.Classes = r.i32()
	n := r.i32()
	if r.err != nil {
		return nil
	}
	if n < 1 || n > 1024 {
		r.err = fmt.Errorf("%w: stage count %d", ErrBadFormat, n)
		return nil
	}
	for i := 0; i < n; i++ {
		switch kind := r.u8(); kind {
		case stageConvBlock:
			name := r.str()
			pool := r.i32()
			outFixed := r.bool()
			conv := r.conv(name+".conv", elide)
			bn := r.bn(name + ".bn")
			if r.err != nil {
				return nil
			}
			m.Stages = append(m.Stages, zoo.AssembleConvBlock(name, conv, bn, pool, outFixed))
		case stageDWBlock:
			name := r.str()
			c, k := r.i32(), r.i32()
			stride, pad := r.i32(), r.i32()
			if r.err != nil {
				return nil
			}
			if c <= 0 || c > 1<<16 || k <= 0 || k > 15 || stride < 1 || stride > 64 || pad < 0 || pad > 64 {
				r.err = fmt.Errorf("%w: depthwise dims c=%d k=%d s%d p%d", ErrBadFormat, c, k, stride, pad)
				return nil
			}
			if !r.claim(tensorBytes(!elide, int64(c*k*k))) {
				return nil
			}
			dw := nn.NewDepthwiseConv2D(name+".dw", c, k, stride, pad, nil)
			if !elide {
				dw.SetWeights(r.weights(c, k*k))
			}
			bn1 := r.bn(name + ".bn1")
			pw := r.conv(name+".pw", elide)
			bn2 := r.bn(name + ".bn2")
			if r.err != nil {
				return nil
			}
			m.Stages = append(m.Stages, zoo.AssembleDWBlock(name, dw, bn1, pw, bn2))
		case stageResBlock:
			name := r.str()
			withSkip := r.bool()
			hasDown := r.bool()
			conv1 := r.conv(name+".conv1", elide)
			bn1 := r.bn(name + ".bn1")
			conv2 := r.conv(name+".conv2", elide)
			bn2 := r.bn(name + ".bn2")
			var down *nn.Conv2D
			var downBN *nn.BatchNorm2D
			if hasDown {
				down = r.conv(name+".down", elide)
				downBN = r.bn(name + ".downbn")
			}
			if r.err != nil {
				return nil
			}
			m.Stages = append(m.Stages, zoo.AssembleResBlock(name, conv1, bn1, conv2, bn2, down, downBN, withSkip))
		default:
			r.err = fmt.Errorf("%w: unknown stage kind %d", ErrBadFormat, kind)
			return nil
		}
	}
	in := r.i32()
	out := r.i32()
	if r.err != nil {
		return nil
	}
	if in <= 0 || out <= 0 || in > 1<<20 || out > 1<<20 ||
		int64(in)*int64(out) > maxTensorElems {
		r.err = fmt.Errorf("%w: head dims %dx%d", ErrBadFormat, in, out)
		return nil
	}
	if !r.claim(tensorBytes(!elide, int64(in)*int64(out)) + tensorBytes(true, int64(out))) {
		return nil
	}
	m.Head = zoo.NewHead(m.Name+".head", in, out, nil)
	if !elide {
		m.Head.FC.SetWeights(r.weights(in, out))
	}
	r.floatsInto(m.Head.FC.B.Value)
	return m
}

func saveTwoBranchBody(w *writer, tb *core.TwoBranch) {
	w.bool(tb.Finalized)
	saveModelBody(w, tb.MR, false)
	saveModelBody(w, tb.MT, false)
	w.align(tb.Align)
}

func loadTwoBranchBody(r *reader) *core.TwoBranch {
	finalized := r.bool()
	mr := loadModelBody(r, false)
	mt := loadModelBody(r, false)
	align := r.align(mr, mt)
	if r.err != nil {
		return nil
	}
	return &core.TwoBranch{MR: mr, MT: mt, Align: align, Finalized: finalized}
}

// align writes the channel-alignment maps, one per stage (-1 for none).
func (w *writer) align(align [][]int) {
	w.i32(len(align))
	for _, a := range align {
		if a == nil {
			w.i32(-1)
			continue
		}
		w.i32(len(a))
		for _, ch := range a {
			w.i32(ch)
		}
	}
}

// align reads the channel-alignment maps of the branches mr and mt. The
// enclave gathers MR's channels at these indices and adds them to MT's stage
// output, so the selection width must match MT's channel count and every
// index must address an MR channel. Validating here keeps a corrupted
// alignment a load error instead of a serve-time protocol failure.
func (r *reader) align(mr, mt *zoo.Model) [][]int {
	n := r.i32()
	if r.err != nil {
		return nil
	}
	if mr == nil || mt == nil || n != len(mt.Stages) || len(mr.Stages) != len(mt.Stages) {
		r.err = fmt.Errorf("%w: alignment count %d for %d stages", ErrBadFormat, n, len(mt.Stages))
		return nil
	}
	align := make([][]int, n)
	for i := range align {
		k := r.i32()
		if r.err != nil {
			return nil
		}
		if k < 0 {
			continue
		}
		if k > 1<<16 {
			r.err = fmt.Errorf("%w: alignment length %d", ErrBadFormat, k)
			return nil
		}
		align[i] = make([]int, k)
		for j := range align[i] {
			align[i][j] = r.i32()
		}
		if r.err != nil {
			return nil
		}
		if mtC := mt.Stages[i].OutChannels(); k != mtC {
			r.err = fmt.Errorf("%w: alignment %d selects %d channels for a %d-channel stage",
				ErrBadFormat, i, k, mtC)
			return nil
		}
		mrC := mr.Stages[i].OutChannels()
		for _, ch := range align[i] {
			if ch < 0 || ch >= mrC {
				r.err = fmt.Errorf("%w: alignment %d index %d outside %d MR channels",
					ErrBadFormat, i, ch, mrC)
				return nil
			}
		}
	}
	return align
}

// maxShapeDim bounds each deployment sample-shape dimension on load, so a
// corrupted artifact cannot request an absurd working set.
const maxShapeDim = 1 << 16

// SaveDeployment writes a deployment artifact: the finalized two-branch
// weights plus the placement metadata (device name, sample shape). It
// requires a finalized model whose branches share one precision; the
// artifact payload is checksummed. Float32 artifacts are written as version
// 2, byte-identical to earlier releases; int8 ones use version 3, whose
// weight records are read back out of the armed layers (quant.Records).
func SaveDeployment(out io.Writer, a *Artifact) error {
	if a == nil {
		return fmt.Errorf("%w: nil deployment artifact", ErrBadFormat)
	}
	if len(a.SampleShape) != 4 {
		return fmt.Errorf("%w: sample shape %v is not [N,C,H,W]", ErrBadFormat, a.SampleShape)
	}
	switch {
	case a.TB == nil || a.TB.MR == nil || a.TB.MT == nil:
		return fmt.Errorf("%w: nil deployment artifact", ErrBadFormat)
	case !a.TB.Finalized:
		return fmt.Errorf("%w: deployment artifact of an unfinalized model", ErrBadFormat)
	case quant.Armed(a.TB.MR) != quant.Armed(a.TB.MT):
		return fmt.Errorf("%w: deployment artifact of branches armed for different precisions", ErrBadFormat)
	}
	v := uint32(version)
	if a.Precision() == precInt8 {
		v = deployVersion
	}
	w := newWriter(out)
	w.u32(magicDeploy)
	w.u32(v)
	w.beginChecksum()
	w.str(a.Device)
	w.i32(len(a.SampleShape))
	for _, d := range a.SampleShape {
		w.i32(d)
	}
	if v == deployVersion {
		w.u8(precByteInt8)
		saveInt8Branch(w, a.TB.MR)
		saveInt8Branch(w, a.TB.MT)
		w.align(a.TB.Align)
	} else {
		saveTwoBranchBody(w, a.TB)
	}
	w.endChecksum()
	return w.flush()
}

// LoadDeployment reads a deployment artifact written by SaveDeployment,
// verifying the payload checksum. Corrupt or truncated input fails with an
// error wrapping ErrBadFormat; LoadDeployment never panics. When in reports
// its length (a bytes.Reader), a tensor the remaining bytes cannot hold is
// refused before it is allocated; the float32 weights an int8 artifact
// elides are never allocated.
func LoadDeployment(in io.Reader) (*Artifact, error) {
	r := newReader(in)
	v := r.header()
	if r.err != nil {
		return nil, r.err
	}
	r.beginChecksum()
	a := &Artifact{Device: r.str()}
	quantized := false
	n := r.i32()
	if r.err != nil {
		return nil, r.err
	}
	if n != 4 {
		return nil, fmt.Errorf("%w: sample shape rank %d, want 4", ErrBadFormat, n)
	}
	a.SampleShape = make([]int, n)
	elems := int64(1)
	for i := range a.SampleShape {
		d := r.i32()
		if r.err != nil {
			return nil, r.err
		}
		if d < 1 || d > maxShapeDim {
			return nil, fmt.Errorf("%w: sample shape dim %d out of range", ErrBadFormat, d)
		}
		a.SampleShape[i] = d
		// Bound the running product, not just each dim: re-deploying sizes
		// activation buffers for the whole [N,C,H,W] working set, so a
		// checksum-valid but absurd shape must fail here instead of as a
		// giant allocation. Checking inside the loop keeps the product far
		// from int64 overflow (≤ 2^26 × 2^16 per step).
		if elems *= int64(d); elems > maxTensorElems {
			return nil, fmt.Errorf("%w: sample shape %v requests over %d elements",
				ErrBadFormat, a.SampleShape[:i+1], int64(maxTensorElems))
		}
	}
	if v >= 3 {
		switch p := r.u8(); {
		case r.err != nil:
			return nil, r.err
		case p == precByteInt8:
			quantized = true
		case p != precByteF32:
			return nil, fmt.Errorf("%w: unknown precision code %d", ErrBadFormat, p)
		}
	}
	if quantized {
		a.TB = &core.TwoBranch{MR: loadInt8Branch(r), MT: loadInt8Branch(r), Finalized: true}
		if r.err == nil {
			a.TB.Align = r.align(a.TB.MR, a.TB.MT)
		}
	} else {
		a.TB = loadTwoBranchBody(r)
	}
	if r.err == nil {
		r.verifyChecksum()
	}
	if r.err != nil {
		return nil, r.err
	}
	if !a.TB.Finalized {
		return nil, fmt.Errorf("%w: deployment artifact carries an unfinalized model", ErrBadFormat)
	}
	return a, nil
}
