package httpd

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"net/http"
	"strconv"
	"sync"

	"tbnet/internal/core"
	"tbnet/internal/tensor"
)

// maxInferBodyBytes bounds /v1/infer and /v1/infer/batch bodies. The largest
// zoo sample (3×32×32) is ≈ 77 KB of JSON at 25 bytes a float, so 32 MiB
// holds a 256-sample batch of them with room to spare.
const maxInferBodyBytes = 32 << 20

// maxBatchSamples bounds a /v1/infer/batch body's samples, each a tensor view
// and a response line, which the byte cap alone leaves at millions.
const maxBatchSamples = 256

// maxPooledBody is the largest body buffer kept for reuse; a rare bigger one
// is left to the collector so the pool cannot pin a burst's worth of memory.
const maxPooledBody = 1 << 20

// errBadBody marks an inference body that could not be read or parsed.
var errBadBody = errors.New("bad request body")

// errTooManySamples answers a batch body over maxBatchSamples.
var errTooManySamples = fmt.Errorf("batch of more than %d samples", maxBatchSamples)

var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody reads the size-capped inference body into a pooled buffer the
// caller hands back with releaseBody once nothing references its bytes.
func readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	if n := r.ContentLength; n > 0 {
		// The header is the client's claim: trust it for the common sizes only.
		buf.Grow(int(min(n, maxPooledBody)) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxInferBodyBytes)); err != nil {
		releaseBody(buf)
		return nil, fmt.Errorf("%w: %w", errBadBody, err)
	}
	return buf, nil
}

func releaseBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		bodyPool.Put(buf)
	}
}

// shapeFunc resolves a hosted model's deployed per-sample [C,H,W] shape.
type shapeFunc func(model string) ([]int, error)

// sample is one decoded request sample: the [1,C,H,W] tensor to serve, or the
// error this sample alone answers with.
type sample struct {
	x   *tensor.Tensor
	err error
}

// decodeSamples decodes a /v1/infer body (batch false: exactly one sample) or
// a /v1/infer/batch body into the resolved model name and its samples. The
// direct scanner takes every canonical body; whatever it declines is decoded
// by encoding/json from the same bytes, which is therefore the only author of
// a malformed body's error text.
func decodeSamples(body []byte, batch bool, deployed shapeFunc) (model string, samples []sample, err error) {
	sc := bodyScanner{b: body, batch: batch, deployed: deployed}
	if sc.scan() {
		return sc.samples()
	}
	return decodeStdlib(body, batch, deployed)
}

// decodeStdlib is the reference decode: strict encoding/json into the wire
// structs, then one sampleTensor per input.
func decodeStdlib(body []byte, batch bool, deployed shapeFunc) (string, []sample, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var (
		name   string
		inputs [][]float64
		shape  []int
	)
	if batch {
		if overCap(body) {
			return "", nil, errTooManySamples
		}
		var req batchRequest
		if err := dec.Decode(&req); err != nil {
			return "", nil, fmt.Errorf("%w: %w", errBadBody, err)
		}
		name, inputs, shape = req.Model, req.Inputs, req.Shape
	} else {
		var req inferRequest
		if err := dec.Decode(&req); err != nil {
			return "", nil, fmt.Errorf("%w: %w", errBadBody, err)
		}
		name, inputs, shape = req.Model, [][]float64{req.Input}, req.Shape
	}
	model := resolveModel(name)
	total := 0
	for _, input := range inputs {
		total += len(input)
	}
	data := make([]float32, 0, total) // never outgrown, so never moved
	samples := make([]sample, len(inputs))
	for i, input := range inputs {
		samples[i].x, samples[i].err = sampleTensor(deployed, model, input, shape, &data)
	}
	return model, samples, nil
}

// overCap reports whether a batch body that decodes holds more than
// maxBatchSamples samples, counting them without a slice for each (a body cap
// of [] is millions). Such a body answers with the cap whatever else it has.
func overCap(body []byte) bool {
	var c struct {
		Inputs sampleCount `json:"inputs"`
	}
	if se := (*json.SyntaxError)(nil); errors.As(json.Unmarshal(body, &c), &se) && se.Offset > 0 {
		// A json.Decoder reads the first value and leaves what follows it.
		json.Unmarshal(body[:se.Offset-1], &c)
	}
	return c.Inputs > maxBatchSamples
}

// sampleCount decodes a batch body's inputs (valid JSON) as their count.
type sampleCount int

func (n *sampleCount) UnmarshalJSON(b []byte) error {
	dec, skip := json.NewDecoder(bytes.NewReader(b)), json.RawMessage(nil)
	*n = 0
	for t, _ := dec.Token(); t == json.Delim('[') && *n <= maxBatchSamples && dec.More(); *n++ {
		dec.Decode(&skip)
	}
	return nil
}

// sampleTensor builds the [1,C,H,W] inference tensor from a flattened input,
// resolving the per-sample shape against the model's deployed plan when the
// request omits it. It appends the values to data, so a body's valid samples
// lie back to back as chunk requires.
func sampleTensor(deployed shapeFunc, model string, input []float64, shape []int, data *[]float32) (*tensor.Tensor, error) {
	if shape == nil {
		var err error
		if shape, err = deployed(model); err != nil {
			return nil, err
		}
	}
	if len(shape) != 3 {
		return nil, fmt.Errorf("%w: sample shape %v, want [C,H,W]", core.ErrShape, shape)
	}
	n := shape[0] * shape[1] * shape[2]
	if shape[0] <= 0 || shape[1] <= 0 || shape[2] <= 0 || len(input) != n {
		return nil, countError(len(input), shape, n)
	}
	at := len(*data)
	for _, v := range input {
		*data = append(*data, float32(v))
	}
	return tensor.FromData((*data)[at:], 1, shape[0], shape[1], shape[2]), nil
}

// chunk is the [k,C,H,W] tensor of k valid samples of one decoded body,
// first the earliest of them. Both decoders pack a body's valid samples back
// to back in one backing, so it is a view of their values, not a copy.
func chunk(first *tensor.Tensor, k int) *tensor.Tensor {
	return tensor.FromData(first.Data()[:k*first.Size()], k, first.Dim(1), first.Dim(2), first.Dim(3))
}

func countError(got int, shape []int, want int) error {
	return fmt.Errorf("%w: %d input values for shape %v (want %d)", core.ErrShape, got, shape, want)
}

// maxScanDim bounds a shape dimension the scanner handles itself, so the
// product of three cannot overflow.
const maxScanDim = 1 << 20

// bodyScanner is the direct decoder of the two inference bodies. It accepts
// only the canonical grammar — the known keys in exact case, each at most
// once, plain ASCII strings without escapes, no null, strict JSON numbers, a
// shape of three positive integers — and parses the float arrays in one pass
// straight into float32 tensor backing, counting every sample's elements
// against the resolved shape as it goes: values beyond the shape are counted,
// never stored. scan reports false to decline; it has no side effects, and a
// declined body is decodeStdlib's.
type bodyScanner struct {
	b        []byte
	pos      int
	batch    bool
	deployed shapeFunc

	name      string // the model as sent; "" addresses the default
	hasShape  bool
	shape     [3]int    // the body's own shape, when hasShape
	resolved  []int     // the shape the samples are checked against
	shapeErr  error     // the deployed-shape lookup's failure, each sample's answer
	n         int       // elements per sample under resolved
	data      []float32 // the samples' stored values, packed in order
	counts    []int     // values each sample of a batch body sent
	count     int       // values the one sample of a single body sent
	hasInputs bool
	tooMany   bool // a batch body past maxBatchSamples: scanned, not counted
}

// skipSpace returns the index of the first byte of b at or after i that is
// not JSON white space.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// eat consumes c after optional white space.
func (s *bodyScanner) eat(c byte) bool {
	s.pos = skipSpace(s.b, s.pos)
	if s.pos < len(s.b) && s.b[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// more reports whether a value follows in an array or object just opened
// with close as its terminator (first) or already holding a value.
func (s *bodyScanner) more(first bool, close byte) (next, ok bool) {
	if s.eat(close) {
		return false, true
	}
	if first {
		return true, true
	}
	return true, s.eat(',')
}

// str scans a string of plain ASCII without escapes and returns its bytes.
func (s *bodyScanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	start := s.pos
	for ; s.pos < len(s.b); s.pos++ {
		switch c := s.b[s.pos]; {
		case c == '"':
			s.pos++
			return s.b[start : s.pos-1], true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// digits folds the run of decimal digits at b[i:] into w and returns the
// index past the run. w wraps past 19 digits; callers count the run.
func digits(b []byte, i int, w uint64) (int, uint64) {
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		w = w*10 + uint64(b[i]-'0')
	}
	return i, w
}

// eightDigits folds the run of decimal digits at b[i:] into w like digits,
// three 8-byte words at a time while 24 bytes remain. A word counts only
// behind full ones, so where the run ends takes no branch.
func eightDigits(b []byte, i int, w uint64) (int, uint64) {
	for i+24 <= len(b) {
		n1, v1 := word(binary.LittleEndian.Uint64(b[i:]))
		n2, v2 := word(binary.LittleEndian.Uint64(b[i+8:]))
		n3, v3 := word(binary.LittleEndian.Uint64(b[i+16:]))
		full := -uint64(n1 >> 3)
		n2, v2 = n2&uint(full), v2&full
		full = -uint64(n2 >> 3)
		n3, v3 = n3&uint(full), v3&full
		w = ((w*pow10u[n1]+v1)*pow10u[n2]+v2)*pow10u[n3] + v3
		if i += int(n1 + n2 + n3); n3 < 8 {
			return i, w
		}
	}
	return digits(b, i, w)
}

// word returns how many of x's bytes, the first in the low byte, are
// decimal digits ahead of the first that is not, and their value. The count
// comes off a mask of the bytes that are not digits.
func word(x uint64) (n uint, v uint64) {
	// Each byte less '0': a digit reads 0..9, and the first byte that is not
	// one reads ≥ 10, so its top bit is set in x or in x + 0x76. No digit
	// below it borrows or carries; what it borrows or carries moves only
	// bytes above it, past the lowest set bit.
	x -= 0x3030303030303030
	other := (x | (x + 0x7676767676767676)) & 0x8080808080808080
	n = uint(bits.TrailingZeros64(other)) >> 3
	// Keep the n digits and rotate them to the top, under leading zeros;
	// then pairs, quads and the eight, the first byte the top digit.
	x &= (other&-other)>>7 - 1
	x = bits.RotateLeft64(x, -8*int(n))
	x = x*10 + x>>8
	x = ((x&0x000000FF000000FF)*(100+1000000<<32) + (x>>16&0x000000FF000000FF)*(1+10000<<32)) >> 32
	return n, uint64(uint32(x))
}

// maxExactDigits is the most significant digits a uint64 always holds.
const maxExactDigits = 19

var (
	// pow10f[e+22] is 10^e rounded to float64: exact for e ≥ 0.
	pow10f = [...]float64{1e-22, 1e-21, 1e-20, 1e-19, 1e-18, 1e-17, 1e-16, 1e-15,
		1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3,
		1e-2, 1e-1, 1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
		1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}
	pow10u = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}
)

// scanNumber parses the strict JSON number that starts at b[i] in one pass
// over its bytes and returns what the reference stores for it,
// float32(strconv.ParseFloat(s, 64)), bit for bit, with its end. ok is false
// when no number starts there, when the digits after a sign, point or
// exponent marker are missing, on a leading zero, and when the value is out
// of float64's range.
func scanNumber(b []byte, i int) (v float32, end int, ok bool) {
	if i >= len(b) {
		return 0, 0, false
	}
	start, sign := i, uint32(0)
	if b[i] == '-' {
		sign = 1
	}
	i += int(sign) // and sign<<31 is the result's sign bit
	lead := i
	var w uint64
	if i, w = digits(b, i, 0); i == lead || i > lead+1 && b[lead] == '0' {
		return 0, 0, false
	}
	nd, e := i-lead, 0
	if i < len(b) && b[i] == '.' {
		frac := i + 1
		if i, w = eightDigits(b, frac, w); i == frac {
			return 0, 0, false
		}
		nd, e = nd+i-frac, frac-i
		if nd > maxExactDigits && w != 0 && b[lead] == '0' {
			// 0.000ddd: the zeros ahead of the first significant digit
			// left w untouched.
			for nd--; b[frac] == '0'; frac++ {
				nd--
			}
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		expNeg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '+' || expNeg) {
			i++
		}
		digs := i
		var x uint64
		if i, x = digits(b, i, 0); i == digs {
			return 0, 0, false
		}
		if i-digs > 4 {
			nd = maxExactDigits + 1 // out of reach whatever int's width: ParseFloat's
		} else if expNeg {
			e -= int(x)
		} else {
			e += int(x)
		}
	}
	if nd <= maxExactDigits {
		if v, ok = guardedFloat32(w, e); ok {
			return math.Float32frombits(math.Float32bits(v) | sign<<31), i, true
		}
	}
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	return float32(f), i, err == nil
}

// roundMargin is how near, in float64 ulps, guardedFloat32's estimate may
// come to a float32 rounding midpoint before the number goes to
// strconv.ParseFloat.
const roundMargin = 3

// guardedFloat32 returns float32(RN(x)) for x = w·10^e, RN being the float64
// rounding ParseFloat does, from one multiply, when that provably picks the
// same float32; ok is false otherwise.
//
// The multiply's error: float64(w), the table's 10^e and their product are
// each rounded to nearest once at most, so f = x(1+δ₁)(1+δ₂)(1+δ₃) with
// |δᵢ| ≤ u = 2⁻⁵³. For f in [2^E, 2^(E+1)), ulp(f) = 2^(E−52) = 2u·2^E and
// x < 2^(E+1)(1+4u), so |f − x| ≤ (3u + 4u²)·x < 3.001 ulp(f).
//
// The guard: the float32 rounding midpoint m of f's float32 cell is the
// float64 of f's binade whose low 29 mantissa bits are 1<<28; the cell's
// other edge is 2²⁷ ulps or more away, across a binade edge too. If f's low
// bits r hold |r − 2²⁸| > roundMargin, f is ≥ 4 ulps from m, so x is
// > 0.99 ulp from m on f's side. RN(x) moves x by ≤ 0.5 ulp, monotonically,
// so it stays strictly on that side too, and RN(x) and f round to the same
// float32: float32(f), one rounding of f.
//
// The range: f must be a float32 normal below the top binade (biased
// exponent 897..1149), so zero and a value that may round past MaxFloat32
// fall back. A float32 subnormal would need e < −22 and never gets here.
func guardedFloat32(w uint64, e int) (v float32, ok bool) {
	if uint(e+22) > 44 {
		return 0, false
	}
	f := float64(w) * pow10f[e+22]
	fb := math.Float64bits(f)
	if fb>>52-897 >= 1150-897 || fb&(1<<29-1)-(1<<28-roundMargin) <= 2*roundMargin {
		return 0, false
	}
	return float32(f), true
}

// dim scans one shape dimension: a plain positive integer up to maxScanDim.
func (s *bodyScanner) dim() (int, bool) {
	start := skipSpace(s.b, s.pos)
	var d uint64
	s.pos, d = digits(s.b, start, 0)
	if n := s.pos - start; n == 0 || n > 7 || s.b[start] == '0' {
		return 0, false
	}
	return int(d), d <= maxScanDim
}

func (s *bodyScanner) scanShape() bool {
	if !s.eat('[') {
		return false
	}
	for i := range s.shape {
		if i > 0 && !s.eat(',') {
			return false
		}
		var ok bool
		if s.shape[i], ok = s.dim(); !ok {
			return false
		}
	}
	s.hasShape = true
	return s.eat(']')
}

// resolve fixes the shape the samples are checked against: the body's own
// when it has been seen, the named model's deployed shape otherwise. A
// deployed shape the scanner's bounds do not cover declines.
func (s *bodyScanner) resolve() bool {
	if s.hasShape {
		// A copy: error text takes the slice, which must not drag the
		// scanner to the heap with it.
		s.resolved, s.shapeErr = []int{s.shape[0], s.shape[1], s.shape[2]}, nil
	} else if s.resolved, s.shapeErr = s.deployed(resolveModel(s.name)); s.shapeErr != nil {
		s.n = 0
		return true
	}
	if len(s.resolved) != 3 {
		return false
	}
	s.n = 1
	for _, d := range s.resolved {
		if d <= 0 || d > maxScanDim {
			return false
		}
		s.n *= d
	}
	return true
}

// scanValues parses one flat array of numbers into dst, counting the values
// past len(dst) without storing them. Each number is the float32 the
// reference stores for it, bit for bit; one out of float64's range is the
// reference's type error.
func (s *bodyScanner) scanValues(dst []float32) (count int, ok bool) {
	if !s.eat('[') {
		return 0, false
	}
	if s.eat(']') {
		return 0, true
	}
	b, i := s.b, s.pos
	for {
		v, end, ok := scanNumber(b, skipSpace(b, i))
		if !ok {
			return 0, false
		}
		if count < len(dst) {
			dst[count] = v
		}
		count++
		if i = skipSpace(b, end); i == len(b) {
			return 0, false
		}
		switch b[i] {
		case ',':
			i++
		case ']':
			s.pos = i + 1
			return count, true
		default:
			return 0, false
		}
	}
}

// scanInputs parses "input" (one flat array) or "inputs" (an array of them)
// into one contiguous backing, sized from the shape known so far. A "shape"
// or "model" key still to come may change that shape; scan declines then.
func (s *bodyScanner) scanInputs() bool {
	if !s.resolve() {
		return false
	}
	s.hasInputs = true
	// Every value takes at least two bytes, so what is left of the body
	// bounds the backing whatever the shape claims.
	limit := (len(s.b)-s.pos)/2 + 1
	if !s.batch {
		s.data = make([]float32, min(s.n, limit))
		var ok bool
		s.count, ok = s.scanValues(s.data)
		return ok
	}
	if !s.eat('[') {
		return false
	}
	// Sizing only: every sample opens one bracket.
	if size := min(bytes.Count(s.b[s.pos:], []byte{'['}), maxBatchSamples); s.n == 0 || size <= limit/s.n {
		limit = size * s.n
	}
	s.data = make([]float32, limit)
	stored := 0
	for {
		next, ok := s.more(len(s.counts) == 0, ']')
		if !ok || !next {
			return ok
		}
		if s.tooMany = len(s.counts) == maxBatchSamples; s.tooMany {
			// Past the cap the rest is read for its grammar alone, so the
			// verdict is the reference's whatever follows.
			if _, ok := s.scanValues(nil); !ok {
				return false
			}
			continue
		}
		count, ok := s.scanValues(s.data[stored:min(stored+s.n, len(s.data))])
		if !ok {
			return false
		}
		s.counts = append(s.counts, count)
		if count == s.n {
			stored += s.n // the next sample overwrites a short or long one
		}
	}
}

// scan parses the whole body, reporting false to decline it.
func (s *bodyScanner) scan() bool {
	if !s.eat('{') {
		return false
	}
	inputsKey := "input"
	if s.batch {
		inputsKey = "inputs"
	}
	var seenModel bool
	// What the inputs were sized under, once they have been parsed.
	var sizedShape bool
	var sizedFor string
	var sizedN int
	for first := true; ; first = false {
		next, ok := s.more(first, '}')
		if !ok {
			return false
		}
		if !next {
			break
		}
		key, ok := s.str()
		if !ok || !s.eat(':') {
			return false
		}
		switch {
		case string(key) == "model" && !seenModel:
			seenModel = true
			name, ok := s.str()
			if !ok {
				return false
			}
			s.name = string(name)
		case string(key) == "shape" && !s.hasShape:
			if !s.scanShape() {
				return false
			}
		case string(key) == inputsKey && !s.hasInputs:
			if !s.scanInputs() {
				return false
			}
			sizedShape, sizedFor, sizedN = s.hasShape, s.name, s.n
		default:
			return false
		}
	}
	if skipSpace(s.b, s.pos) != len(s.b) {
		return false
	}
	// A "shape" or "model" key after the inputs can change the shape they
	// are checked against. If that changes the sample size too they are
	// packed wrong, and the reference decodes the body.
	if !s.hasInputs || s.hasShape != sizedShape || !s.hasShape && s.name != sizedFor {
		if !s.resolve() || s.hasInputs && s.n != sizedN {
			return false
		}
	}
	return true
}

// samples turns a scanned body into the decoded form: one view of the shared
// backing per sample that sent exactly the resolved shape's element count,
// packed back to back as chunk requires.
func (s *bodyScanner) samples() (string, []sample, error) {
	if s.tooMany {
		return "", nil, errTooManySamples
	}
	counts := s.counts
	if !s.batch {
		counts = []int{s.count}
	}
	out := make([]sample, len(counts))
	stored := 0
	for i, count := range counts {
		switch {
		case s.shapeErr != nil:
			out[i].err = s.shapeErr
		case count != s.n:
			out[i].err = countError(count, s.resolved, s.n)
		default:
			out[i].x = tensor.FromData(s.data[stored:stored+s.n], 1, s.resolved[0], s.resolved[1], s.resolved[2])
			stored += s.n
		}
	}
	return resolveModel(s.name), out, nil
}
