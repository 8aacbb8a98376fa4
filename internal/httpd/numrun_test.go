package httpd

import (
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// numKernels lists the number kernels best first, the order
// forEachNumLevel walks them in.
var numKernels = []numKernel{numVBMI, numScalar}

// forEachNumLevel runs fn as one subtest per number kernel with scanValues
// pinned to it, and skips, by name, a leg whose gate this CPU or platform
// does not pass (withNumLevel).
func forEachNumLevel(t *testing.T, fn func(t *testing.T)) {
	for _, l := range numKernels {
		t.Run(l.String(), func(t *testing.T) {
			if !withNumLevel(l, func() { fn(t) }) {
				t.Skipf("no %v number kernel on this CPU", l)
			}
		})
	}
}

// scanArray runs scanValues over the array that starts b, storing into dst,
// and returns what it counted, its verdict and where it stopped.
func scanArray(b []byte, dst []float32) (count int, ok bool, pos int) {
	s := bodyScanner{b: b}
	count, ok = s.scanValues(dst)
	return count, ok, s.pos
}

// checkScanRun is the number run's oracle: on b, with dst of n slots,
// scanValues at the pinned level counts, judges, stops and stores exactly
// what it does on scanNumber alone, every float bit for bit.
func checkScanRun(t *testing.T, b []byte, n int) {
	t.Helper()
	got, want := make([]float32, n), make([]float32, n)
	for i := range got {
		got[i] = math.Float32frombits(0x7FC00001) // a NaN no number parses to
		want[i] = got[i]
	}
	count, ok, pos := scanArray(b, got)
	var wCount, wPos int
	var wOK bool
	withNumLevel(numScalar, func() { wCount, wOK, wPos = scanArray(b, want) })
	if count != wCount || ok != wOK || ok && pos != wPos {
		t.Fatalf("%q into %d slots: %v (count %d, ok %v, pos %d), scalar (%d, %v, %d)",
			b, n, numLevel, count, ok, pos, wCount, wOK, wPos)
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%q into %d slots: %v value %d = %x, scalar %x", b, n, numLevel, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// wireArray marshals n float32 N(0,1) draws widened to float64, as the
// benchmark and a plain client send a sample.
func wireArray(rng *rand.Rand, n int) []byte {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(float32(rng.NormFloat64()))
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// edgeTokens are the numbers and near-numbers at the edges of the kernel's
// shape: 18 and 19 significant digits, leading fraction zeros, zeros, the
// point's limit of 22 fraction digits, exponents, white space, integers,
// float32 midpoints the guard refuses, and tokens that are not numbers.
var edgeTokens = []string{
	"1.23456789012345678", "-123456789.012345678", "0.123456789012345678", "123456789012345678.5",
	"1.234567890123456789", "0.1234567890123456789", "1234567890123456789.5", "12345678901234567890.5",
	"0.000012345678901234567", "-0.0000001", "0.0000000000000000000001", "0.00000000000000000000001",
	"0.000000000000000000000012345", "0.0000000000000000001234567890123456789",
	"-0.0", "0.0", "0.000", "-0.00000000000000000000000", "0", "-0", "1", "-7", "123456789",
	"1.5e3", "1E2", "-2.5e-3", "1.0e-7", "1.5E+10",
	" 1.5", "1.5 ", "\n-0.25\t", "\r0.5",
	"1.0000000596046448", "-1.0000000596046448", "1.0000000596046446", "1.000000059604645",
	"340282346638528859811704183484516925440.0", "340282356779733661637539395458142568448.5",
	"0.000000000000000000000000000000000000011754943508222875", "99999999.99999999", "9.999999999999999",
	"01.5", "00.5", "-01.5", "1.", ".5", "-", "--1.5", "+1.5", "1.5.5", "1..5", "-.5", "1.5x", "1e", "",
}

// edgeArrays embeds each edge token in a wire array, at its head, in its
// middle far from the end and in its last 63 bytes, and once alone.
func edgeArrays(rng *rand.Rand) [][]byte {
	var out [][]byte
	for _, tok := range edgeTokens {
		pre, post := string(wireArray(rng, 5)), string(wireArray(rng, 6))
		pre, post = pre[1:len(pre)-1], post[1:len(post)-1]
		for _, s := range []string{
			"[" + tok + "," + post + "]",
			"[" + pre + "," + tok + "," + post + "]",
			"[" + pre + "," + post + "," + tok + "]",
			"[" + tok + "]",
		} {
			out = append(out, []byte(s))
		}
	}
	// float32 rounding midpoints and their float64 neighbours, inside and
	// just outside the guard's margin, in the kernel's shape.
	var mids []string
	for i := 0; i < 64; i++ {
		f := float32(math.Abs(rng.NormFloat64())) + 0x1p-20
		k := int64(rng.Intn(2*roundMargin+5)) - roundMargin - 2
		m := math.Float64frombits(uint64(int64(math.Float64bits(float64(f))) + 1<<28 + k))
		mids = append(mids, strconv.FormatFloat(m, 'f', -1, 64))
	}
	out = append(out, []byte("["+strings.Join(mids, ",")+"]"))
	return out
}

// TestScanRunMatchesScalar: at every level the CPU passes, scanValues stores,
// counts and stops on the benchmark's bodies and on every edge token exactly
// as scanNumber alone does, with dst as long as the array, shorter, and nil.
func TestScanRunMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	var arrays [][]byte
	for _, body := range benchBodies(t, 4, "bench", 3, 3, 16, 16) {
		// Each sample's array in place, the last one followed by the
		// body's closing "]}".
		for i := strings.Index(string(body), "[["); ; {
			j := i + 1 + strings.IndexByte(string(body[i+1:]), '[')
			if j <= i {
				break
			}
			arrays = append(arrays, body[j:])
			i = j
		}
	}
	// Longer than one kernel call reads (maxRunBytes).
	arrays = append(arrays, wireArray(rng, 8000))
	arrays = append(arrays, edgeArrays(rng)...)
	forEachNumLevel(t, func(t *testing.T) {
		for _, a := range arrays {
			n := strings.Count(string(a), ",") + 1
			for _, slots := range []int{n, n / 2, 0} {
				checkScanRun(t, a, slots)
			}
		}
	})
}

// TestScanRunTakesWireNumbers: the kernel is not merely correct but taken. Of
// a wire sample's numbers it parses all but those in the array's last 64
// bytes, where a load would read past the body.
func TestScanRunTakesWireNumbers(t *testing.T) {
	if !withNumLevel(numVBMI, func() {}) {
		t.Skip("no avx512-vbmi number kernel on this CPU")
	}
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 64; trial++ {
		a := wireArray(rng, 768)
		dst := make([]float32, 768)
		end, n := scanRunVBMI(a, 1, dst, 0)
		// Left to scanNumber: the numbers after end, each behind a ','.
		if left := strings.Count(string(a[end:]), ","); n+left != 768 || len(a)-end > 66 {
			t.Fatalf("the kernel took %d of 768 wire numbers and stopped %d bytes before the end", n, len(a)-end)
		}
	}
}

// TestScanRunTakesItsShape locks the kernel's side of each edge: the tokens
// of its shape it must take with scanNumber's bits, up to 18 significant
// digits and 22 after the point, leading fraction zeros not counted; and
// the tokens it must leave to scanNumber.
func TestScanRunTakesItsShape(t *testing.T) {
	if !withNumLevel(numVBMI, func() {}) {
		t.Skip("no avx512-vbmi number kernel on this CPU")
	}
	pad := "," + strings.Repeat("0.5,", 20) + "0.5]"
	for _, c := range []struct {
		tok   string
		taken bool
	}{
		{"1.5", true}, {"-0.7071067690849304", true}, {"1.23456789012345678", true}, {"-123456789.012345678", true},
		{"0.123456789012345678", true}, {"0.000012345678901234567", true}, {"0.0000000000000000000001", true},
		{"0.0000000000012345678", true}, {"99999999.99999999", true},
		{"1.234567890123456789", false}, {"0.1234567890123456789", false}, {"123456789012345678.5", false},
		{"0.00000000000000000000001", false}, {"0.0000000000000000001234567890123456", false}, {"-0.0", false}, {"0.0", false}, {"1", false}, {"1.5e3", false},
		{" 1.5", false}, {"1.0000000596046448", false}, {"01.5", false}, {"1.", false}, {"-.5", false},
	} {
		a := []byte("[" + c.tok + pad)
		dst := []float32{0}
		_, n := scanRunVBMI(a, 1, dst, 0)
		want, _, _ := scanNumber([]byte(strings.TrimSpace(c.tok)), 0)
		if taken := n > 0; taken != c.taken || taken && math.Float32bits(dst[0]) != math.Float32bits(want) {
			t.Fatalf("%q: the kernel took it %v (%x), want %v (%x)", c.tok, taken, math.Float32bits(dst[0]), c.taken, math.Float32bits(want))
		}
	}
}

// FuzzScanRun holds the kernel-then-scalar loop to the scalar loop on raw
// bytes: the same count, verdict and stop, every float bit for bit, with dst
// of any length below 1024.
func FuzzScanRun(f *testing.F) {
	rng := rand.New(rand.NewSource(46))
	f.Add(wireArray(rng, 24), uint16(24))
	f.Add(wireArray(rng, 24), uint16(7))
	for _, a := range edgeArrays(rng) {
		f.Add(a, uint16(3))
	}
	f.Fuzz(func(t *testing.T, b []byte, n uint16) {
		for _, l := range numKernels {
			withNumLevel(l, func() { checkScanRun(t, b, int(n%1024)) })
		}
	})
}

// TestNumberKernelNamesLevel: the status check names the number kernel the
// decoder is pinned to at every level; the log line shows the detected one.
func TestNumberKernelNamesLevel(t *testing.T) {
	forEachNumLevel(t, func(t *testing.T) {
		want := map[numKernel]string{numVBMI: "avx512-vbmi", numScalar: "scalar"}[numLevel]
		if got := NumberKernel(); got != want {
			t.Fatalf("NumberKernel() = %q at level %d, want %q", got, numLevel, want)
		}
	})
	t.Logf("kernels: json=%s", NumberKernel())
}
