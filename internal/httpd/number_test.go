package httpd

import (
	"encoding/json"
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// strictNumber is RFC 8259's number production.
var strictNumber = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// checkNumber is the number path's oracle: scanNumber takes the whole of b
// iff b is a strict JSON number strconv.ParseFloat puts in float64's range,
// and then returns the bits of float32(ParseFloat), what the reference
// decode stores. Whatever prefix it takes of a longer input must pass the
// same oracle.
func checkNumber(t *testing.T, b []byte) {
	t.Helper()
	_, end, ok := scanNumber(b, 0)
	_, err := strconv.ParseFloat(string(b), 64)
	strict := strictNumber.Match(b) && err == nil
	if taken := ok && end == len(b); taken != strict {
		t.Fatalf("%q: scanner takes it %v (end %d of %d), strict number in range %v", b, taken, end, len(b), strict)
	}
	if strict {
		checkStrictNumber(t, b)
	}
	if ok && end < len(b) {
		checkNumber(t, b[:end])
	}
}

// checkStrictNumber is the oracle for b known to be a strict JSON number:
// the scanner takes all of it when ParseFloat has it in range, with the bits
// of float32(ParseFloat), and declines it otherwise.
func checkStrictNumber(t *testing.T, b []byte) {
	v, end, ok := scanNumber(b, 0)
	f, err := strconv.ParseFloat(string(b), 64)
	want := float32(f)
	if ok != (err == nil) || ok && (end != len(b) || math.Float32bits(v) != math.Float32bits(want)) {
		t.Fatalf("%q: scanner (%v, %d, %v), float32(ParseFloat) (%v, %v)", b, v, end, ok, want, err)
	}
}

// numberSeeds covers each conversion path and each way out of it.
var numberSeeds = []string{
	"0", "-0", "0.0", "-0.0", "0e5", "-0E-5", "0.000", "1", "-1", "1.5", "2.5e-3", "1E2", "-1.5e+2",
	"0.1", "0.12345678901234568", "-0.7071067690849304", "1.2345678901234567e-07", "3.4028234663852886e38",
	"9007199254740991", "9007199254740992", "9007199254740993", "9007199254740993e-3", "18014398509481985",
	"4503599627370496.5", "2251799813685248.25", "1125899906842624.125", "9999999999999999999", "99999999999999999999",
	"123456789012345678901234567890", "0.000001234567890123456", "0.0000000000000000000000001",
	"1e22", "1e23", "1e-22", "1e-23", "12345678901234567e19", "12345678901234567e-19", "12345678901234567e20",
	"1e400", "-1e400", "1e-400", "4.9e-324", "5e-324", "2.2250738585072014e-308", "1.7976931348623157e308",
	"1.7976931348623159e308", "1e0000000000000000000000005", "0e99999999999999999999999", "1e-99999999999999999999",
	"1e4294967296", "1e-4294967296", "1e09999", "1e00001", "12345e-0004",
	"", "-", "+1", ".5", "1.", "1.e5", "1e", "1e+", "01", "-01", "00", "0x10", "1_0", "Inf", "NaN", "1.5.", "1e5e",
	"1 ", "12345678x", "1234567812345678,", "0.123456781234567812345678]",
	// A float32 midpoint (1 + 2⁻²⁴) the guard sends to ParseFloat, the
	// float32 overflow midpoint, a float32 subnormal, and digit runs ended
	// by bytes below '0' and past 0x7F.
	"1.0000000596046448", "-1.0000000596046448e+00", "3.4028235677973366e38", "1e-40", "-1e-40",
	"1.2345678\x00", "0.12345678901234567\x80",
}

// FuzzScanNumber holds the one-pass number scanner to float32(ParseFloat)
// and the JSON grammar on arbitrary bytes.
func FuzzScanNumber(f *testing.F) {
	for _, s := range numberSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(checkNumber)
}

// TestScanNumberMatchesParseFloat is the deterministic differential: over
// three million numbers drawn from what clients send, from random digit
// strings, and from the values where rounding is decided (float64 ties and
// their neighbours, float32 midpoints and their float64 neighbours out past
// the guard's margin), the scanner returns float32(ParseFloat)'s bits.
func TestScanNumberMatchesParseFloat(t *testing.T) {
	for _, s := range numberSeeds {
		checkNumber(t, []byte(s))
	}
	rng := rand.New(rand.NewSource(33))
	var buf []byte
	marshal := func(v float64) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	digitString := func(n int) []byte {
		buf = buf[:0]
		for i := 0; i < n; i++ {
			buf = append(buf, byte('0'+rng.Intn(10)))
		}
		if buf[0] == '0' && n > 1 {
			buf[0] = byte('1' + rng.Intn(9))
		}
		return buf
	}
	// tie returns the value halfway between q·2^s and its float64
	// successor, or a neighbour of it, as an integer when that fits.
	tie := func() uint64 {
		s := 1 + rng.Intn(11)
		q := 1<<52 | rng.Uint64()&(1<<52-1)
		return (q<<1|1)<<(s-1) + uint64(rng.Intn(3)) - 1
	}
	pow10u := [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5}
	precisions := [...]int{-1, 16, 8}
	const n = 3_000_000
	for i := 0; i < n; i++ {
		var b []byte
		switch i % 10 {
		case 0: // a float32 of random bits, widened as a client widens it
			f := math.Float32frombits(rng.Uint32())
			if math.IsNaN(float64(f)) || math.IsInf(float64(f), 0) {
				f = 0
			}
			b = marshal(float64(f))
		case 1, 2: // what the benchmark and a plain client send
			b = marshal(float64(float32(rng.NormFloat64())))
		case 3: // random digits, a point anywhere, an exponent or not
			b = digitString(1 + rng.Intn(24))
			if k := rng.Intn(len(b) + 1); k < len(b) && (b[0] != '0' || k == 1) && k > 0 {
				b = append(b[:k], append([]byte{'.'}, b[k:]...)...)
			}
			if rng.Intn(2) == 0 {
				b = strconv.AppendInt(append(b, 'e'), int64(rng.Intn(70)-35), 10)
			}
		case 4: // 0.000ddd: leading zeros are not significant digits
			b = append([]byte("0."+strings.Repeat("0", rng.Intn(8))), digitString(1+rng.Intn(20))...)
		case 5: // ties and their neighbours above 2⁵³: products
			b = strconv.AppendUint(nil, tie(), 10)
		case 6: // ties and their neighbours below 2⁵³: quotients, (2q+1)/2^k
			k := 1 + rng.Intn(3)
			q := uint64(1)<<52 | rng.Uint64()&(1<<52-1)
			b = strconv.AppendUint(nil, (q<<1|1)*pow10u[k]>>k+uint64(rng.Intn(3))-1, 10)
			b = append(b[:len(b)-k], append([]byte{'.'}, b[len(b)-k:]...)...)
		case 7: // neighbours of 2⁵³, scaled by a power of ten
			w := uint64(1)<<53 + uint64(rng.Intn(64)) - 32
			b = strconv.AppendUint(nil, w, 10)
			b = strconv.AppendInt(append(b, 'e'), int64(rng.Intn(45)-22), 10)
		case 8: // ties above 2⁵³ written as w·10^e
			e := 1 + rng.Intn(5)
			sh := e + 1 + rng.Intn(11-e)
			five := pow10u[e] >> e
			m := (1<<53/five + rng.Uint64()%(1<<53/five)) | 1
			b = strconv.AppendUint(nil, m<<(sh-1-e)+uint64(rng.Intn(3))-1, 10)
			b = strconv.AppendInt(append(b, 'e'), int64(e), 10)
		case 9: // float32 midpoints and their float64 neighbours, in each form
			f := float32(math.Abs(rng.NormFloat64()))
			if rng.Intn(2) == 0 {
				f = math.Float32frombits(rng.Uint32() &^ (1 << 31))
			}
			if !(f >= 0x1p-126 && f <= math.MaxFloat32/2) {
				f = 1
			}
			k := int64(rng.Intn(2*roundMargin+5)) - roundMargin - 2
			m := math.Float64frombits(uint64(int64(math.Float64bits(float64(f))) + 1<<28 + k))
			b = strconv.AppendFloat(nil, m, "gef"[rng.Intn(3)], precisions[rng.Intn(3)], 64)
		}
		if rng.Intn(4) == 0 && b[0] != '-' {
			b = append([]byte{'-'}, b...)
		}
		checkStrictNumber(t, b)
	}
}

// TestGuardedFloat32Paths: the one multiply is taken for a float32 normal
// clear of a rounding midpoint, and everything else falls back: zero, the
// top binade, a guard hit, and an exponent past the table.
func TestGuardedFloat32Paths(t *testing.T) {
	for _, c := range []struct {
		w    uint64
		e    int
		fast bool
	}{
		{12345, -5, true},
		{9999999999999999999, -19, true},
		{1<<53 + 1, 22, true},
		{1, -22, true},
		{0, 0, false},
		{20000000000000000, 22, false},  // 2e38: the top binade
		{10000000596046448, -16, false}, // 1 + 2⁻²⁴, a float32 midpoint
		{10000000596046447, -16, false}, // a decimal ulp below it
		{1, -23, false},
		{1, 23, false},
	} {
		v, ok := guardedFloat32(c.w, c.e)
		if ok != c.fast {
			t.Fatalf("guardedFloat32(%d, %d) ok = %v, want %v", c.w, c.e, ok, c.fast)
		}
		s := strconv.FormatUint(c.w, 10) + "e" + strconv.Itoa(c.e)
		if f, _ := strconv.ParseFloat(s, 64); ok && v != float32(f) {
			t.Fatalf("guardedFloat32(%s) = %v, float32(ParseFloat) %v", s, v, float32(f))
		}
	}
}

// TestGuardedFloat32TakesWireNumbers: the guard is not merely correct but
// taken. Of the numbers a client sends for an N(0,1) float32 sample, at
// least 99.9 % convert in the one multiply.
func TestGuardedFloat32TakesWireNumbers(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	const n = 200_000
	fast := 0
	for i := 0; i < n; i++ {
		b, _ := json.Marshal(float64(float32(rng.NormFloat64())))
		// The significant digits and the exponent scanNumber folds.
		s, exp := strings.TrimPrefix(string(b), "-"), 0
		if k := strings.IndexAny(s, "eE"); k >= 0 {
			exp, _ = strconv.Atoi(s[k+1:])
			s = s[:k]
		}
		if k := strings.IndexByte(s, '.'); k >= 0 {
			exp -= len(s) - k - 1
			s = s[:k] + s[k+1:]
		}
		s = strings.TrimLeft(s, "0")
		w, err := strconv.ParseUint(s, 10, 64)
		if err != nil || len(s) > maxExactDigits {
			continue
		}
		if _, ok := guardedFloat32(w, exp); ok {
			fast++
		}
	}
	if float64(fast) < 0.999*n {
		t.Fatalf("fast path took %d of %d wire numbers, want ≥ 99.9 %%", fast, n)
	}
}

// TestEightDigits: the word step reads digits as the digit loop does and
// stops at the first byte that is not one, wherever in a word it falls.
func TestEightDigits(t *testing.T) {
	for _, s := range []string{"12345678", "00000000", "99999999", "1234567x9", "123456789012345678", "/0123456", ":", "9876543:",
		"1234567812345678", "12345678123456781]", "12345678\x80", "1.234567890", "123\xb9\xba45678", "0000000000000000000000001e5"} {
		i, w := eightDigits([]byte(s), 0, 7)
		j, v := digits([]byte(s), 0, 7)
		if i != j || w != v {
			t.Fatalf("%q: eightDigits (%d, %d), digits (%d, %d)", s, i, w, j, v)
		}
	}
}

// BenchmarkScanNumber prices the wire's numbers where the product parses
// them: in place in a benchmark-shaped array, one 3×16×16 sample of float32
// N(0,1) draws widened as a client widens them, one scanValues pass an op,
// rotated over 16 arrays. The kernel leg runs the number run kernel (skipped
// by name on a CPU without it), the scalar leg scanNumber alone, and
// parsefloat strconv.ParseFloat on each number's text.
func BenchmarkScanNumber(b *testing.B) {
	const n = 3 * 16 * 16
	rng := rand.New(rand.NewSource(1))
	arrays := make([][]byte, 16)
	var texts []string
	for i := range arrays {
		arrays[i] = wireArray(rng, n)
		texts = append(texts, strings.Split(string(arrays[i][1:len(arrays[i])-1]), ",")...)
	}
	dst := make([]float32, n)
	for _, leg := range []struct {
		name  string
		level numKernel
	}{{"kernel", numVBMI}, {"scalar", numScalar}} {
		b.Run(leg.name, func(b *testing.B) {
			if !withNumLevel(leg.level, func() {
				for i := 0; i < b.N; i++ {
					if count, ok, _ := scanArray(arrays[i%len(arrays)], dst); !ok || count != n {
						b.Fatal("declined")
					}
				}
			}) {
				b.Skipf("no %v number kernel on this CPU", leg.level)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/number")
		})
	}
	b.Run("parsefloat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, s := range texts[i%len(arrays)*n:][:n] {
				if _, err := strconv.ParseFloat(s, 64); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/number")
	})
}
