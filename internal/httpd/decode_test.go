package httpd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"tbnet/internal/fleet"
	"tbnet/internal/serve"
	"tbnet/internal/tensor"
)

// testShapes stands in for the fleet's deployed-shape lookup: small shapes a
// fuzzer can hit exactly, the benchmark's shape, one the scanner's bounds do
// not cover, and an unknown model for everything else.
func testShapes(model string) ([]int, error) {
	switch model {
	case "default":
		return []int{3, 2, 2}, nil
	case "wide":
		return []int{1, 1, 3}, nil
	case "bench":
		return []int{3, 16, 16}, nil
	case "cifar":
		return []int{3, 32, 32}, nil
	case "flat":
		return []int{4}, nil
	}
	return nil, fmt.Errorf("serve: %w %q", serve.ErrUnknownModel, model)
}

// benchBody marshals what bench/load.go and a plain client send: the float32
// sample widened to float64, the default model addressed by omission.
func benchBody(tb testing.TB, model string, batch int, shape ...int) []byte {
	return benchBodies(tb, 1, model, batch, shape...)[0]
}

// benchBodies marshals n such bodies, each with fresh N(0,1) draws; the
// first is benchBody's.
func benchBodies(tb testing.TB, n int, model string, batch int, shape ...int) [][]byte {
	tb.Helper()
	rng := tensor.NewRNG(7)
	bodies := make([][]byte, n)
	for k := range bodies {
		inputs := make([][]float64, max(batch, 1))
		for i := range inputs {
			x := tensor.New(shape...)
			rng.FillNormal(x, 0, 1)
			for _, v := range x.Data() {
				inputs[i] = append(inputs[i], float64(v))
			}
		}
		var v any = struct {
			Model string    `json:"model,omitempty"`
			Input []float64 `json:"input"`
		}{model, inputs[0]}
		if batch > 0 {
			v = struct {
				Model  string      `json:"model,omitempty"`
				Inputs [][]float64 `json:"inputs"`
			}{model, inputs}
		}
		body, err := json.Marshal(v)
		if err != nil {
			tb.Fatal(err)
		}
		bodies[k] = body
	}
	return bodies
}

// checkAgainstReference is the differential oracle: a body the scanner takes
// must decode exactly as encoding/json decodes it — accepted, or refused with
// the same error, same model, same per-sample verdict and error text, same
// shape, every float bit for bit. It reports whether the scanner took the
// body.
func checkAgainstReference(t *testing.T, body []byte, batch bool) bool {
	t.Helper()
	before := append([]byte(nil), body...)
	sc := bodyScanner{b: body, batch: batch, deployed: testShapes}
	taken := sc.scan()
	if !bytes.Equal(before, body) {
		t.Fatalf("scan wrote to the body %q", before)
	}
	if !taken {
		return false
	}
	gotModel, got, gotErr := sc.samples()
	wantModel, want, err := decodeStdlib(body, batch, testShapes)
	if gotErr != nil || err != nil {
		if gotErr == nil || err == nil || gotErr.Error() != err.Error() {
			t.Fatalf("body %q: scanner error %v, reference %v", body, gotErr, err)
		}
		if c, _ := statusFor(gotErr); c != http.StatusRequestEntityTooLarge {
			t.Fatalf("body %q: error %v maps to %d", body, gotErr, c)
		}
		return true
	}
	if gotModel != wantModel || len(got) != len(want) {
		t.Fatalf("body %q: scanner (%q, %d samples), reference (%q, %d samples)",
			body, gotModel, len(got), wantModel, len(want))
	}
	for i := range want {
		if (got[i].err == nil) != (want[i].err == nil) ||
			got[i].err != nil && got[i].err.Error() != want[i].err.Error() {
			t.Fatalf("body %q sample %d: scanner error %v, reference %v", body, i, got[i].err, want[i].err)
		}
		if want[i].err != nil {
			if c, _ := statusFor(got[i].err); c != http.StatusBadRequest && c != http.StatusNotFound {
				t.Fatalf("body %q sample %d: error %v maps to %d", body, i, got[i].err, c)
			}
			continue
		}
		if !reflect.DeepEqual(got[i].x.Shape(), want[i].x.Shape()) {
			t.Fatalf("body %q sample %d: shape %v, reference %v", body, i, got[i].x.Shape(), want[i].x.Shape())
		}
		for j, w := range want[i].x.Data() {
			if g := got[i].x.Data()[j]; math.Float32bits(g) != math.Float32bits(w) {
				t.Fatalf("body %q sample %d value %d: %x, reference %x", body, i, j, math.Float32bits(g), math.Float32bits(w))
			}
		}
	}
	// Both decoders pack the valid samples back to back: a chunk of them is
	// a view over their own values.
	for name, samples := range map[string][]sample{"scanner": got, "reference": want} {
		var valid []*tensor.Tensor
		for _, smp := range samples {
			if smp.err == nil {
				valid = append(valid, smp.x)
			}
		}
		if len(valid) == 0 {
			continue
		}
		c := chunk(valid[0], len(valid))
		for j, x := range valid {
			if &c.Data()[j*x.Size()] != &x.Data()[0] {
				t.Fatalf("body %q: %s's valid sample %d is not packed after the %d before it", body, name, j, j)
			}
		}
	}
	return true
}

// seedBodies is the fuzz corpus and the unit table in one: whether the
// scanner must take each body, or must leave it to encoding/json.
func seedBodies(tb testing.TB, batch bool) (taken, declined [][]byte) {
	twelve := "[1,-0,2.5e-3,1E2,0.1,-1.5e+2,16777217,3.4028236e38,1e300,1e-400,123456789012345678901234567890,0]"
	key := `"input":`
	arr := func(s string) string { return s }
	if batch {
		key = `"inputs":`
		arr = func(s string) string { return "[" + s + ",[1,2,3,4,5,6,7,8,9,10,11,12]]" }
	}
	for _, s := range []string{
		`{` + key + arr(twelve) + `}`,
		` { ` + key + ` ` + arr("[ 1 , 2 ,\n3,\t4,5,6,7,8,9,10,11,12\r]") + ` } ` + "\n",
		`{"model":"wide",` + key + arr("[1,2,3]") + `}`,
		`{` + key + arr(twelve) + `,"model":"default"}`,
		`{"model":"default",` + key + arr(twelve) + `,"shape":[3,2,2]}`,
		`{"shape":[2,3,2],` + key + arr(twelve) + `}`,
		`{"shape":[1,1,3],"model":"nobody",` + key + arr("[1,2,3]") + `}`,
		`{"model":"nobody",` + key + arr("[1,2,3]") + `}`,
		`{` + key + arr("[1,2,3]") + `}`,
		`{` + key + arr("[]") + `}`,
		`{"shape":[1,1,2],` + key + arr("[1,2,3,4,5,6,7,8,9]") + `}`,
		`{"shape":[1048576,1048576,1048576],` + key + arr("[1]") + `}`,
		`{"model":""}`,
		`{}`,
	} {
		taken = append(taken, []byte(s))
	}
	if batch {
		taken = append(taken, []byte(`{"inputs":[]}`), []byte(`{"shape":[1,1,1],"inputs":[[],[1],[]]}`))
		// Past the sample cap, with a tail still to read (TestBatchSampleCap
		// has the cap itself).
		over := `{"shape":[1,1,1],"inputs":[` + strings.Repeat("[],", maxBatchSamples) + `[1e5]`
		taken = append(taken, []byte(over+`,[],[0.5]]}`))
		declined = append(declined, []byte(over+`,[1,]]}`), []byte(over+`]`), []byte(over+`,[]],"extra":1}`))
	}
	doc := `{"model":"wide",` + key + arr("[1.5,-2e1,0]") + `,"shape":[1,1,3]}`
	for i := 0; i < len(doc); i++ {
		declined = append(declined, []byte(doc[:i]))
	}
	for _, s := range []string{
		`{` + key + arr("[1e400,2,3]") + `,"model":"wide"}`,
		`{` + key + arr("[01,2,3]") + `,"model":"wide"}`,
		`{` + key + arr("[1.,2,3]") + `}`, `{` + key + arr("[.5,2,3]") + `}`, `{` + key + arr("[+1,2,3]") + `}`,
		`{` + key + arr("[1e,2,3]") + `}`, `{` + key + arr("[-,2,3]") + `}`, `{` + key + arr("[0x10,2,3]") + `}`,
		`{` + key + arr("[NaN,2,3]") + `}`, `{` + key + arr("[Infinity,2,3]") + `}`, `{` + key + arr("[-Infinity,2,3]") + `}`,
		`{` + key + arr("[1,2,3,]") + `}`, `{` + key + arr("[1,,3]") + `}`, `{` + key + arr("[1 2 3]") + `}`,
		`{` + key + arr("[[1,2,3]]") + `}`, `{` + key + arr("[1,[2],3]") + `}`,
		`{` + key + arr("[1,null,3]") + `,"model":"wide"}`, `{` + key + `null}`, `{"model":null,` + key + arr("[1,2,3]") + `}`,
		`{` + key + arr("[1,2,3]") + `,"shape":null,"model":"wide"}`,
		`{` + key + arr("[1,2,3]") + `,"model":"wide"} trailing`,
		`{` + key + arr("[1,2,3]") + `,"model":"wide"}{"x":1}`,
		`{"INPUT":[1,2,3],"Inputs":[[1,2,3]],"model":"wide"}`,
		`{"Model":"wide",` + key + arr("[1,2,3]") + `}`,
		`{"mod\u0065l":"wide",` + key + arr("[1,2,3]") + `}`,
		`{"model":"w\u0069de",` + key + arr("[1,2,3]") + `}`,
		`{"model":"wi\"de",` + key + arr("[1,2,3]") + `}`,
		`{"model":"wïde",` + key + arr("[1,2,3]") + `}`,
		`{"model":"wide",` + key + arr("[1,2,3]") + `,` + key + arr("[4,5,6]") + `}`,
		`{"model":"wide","model":"default",` + key + arr("[1,2,3]") + `}`,
		`{"shape":[1,1,3],"shape":[3,1,1],` + key + arr("[1,2,3]") + `}`,
		`{` + key + arr("[1,2,3]") + `,"extra":1}`,
		`{` + key + arr("[1,2,3]") + `,}`,
		`{"shape":[1,3],` + key + arr("[1,2,3]") + `}`, `{"shape":[1,1,1,3],` + key + arr("[1,2,3]") + `}`,
		`{"shape":[],` + key + arr("[1,2,3]") + `}`, `{"shape":[1,0,3],` + key + arr("[1,2,3]") + `}`,
		`{"shape":[1,-1,3],` + key + arr("[1,2,3]") + `}`, `{"shape":[1,1.0,3],` + key + arr("[1,2,3]") + `}`,
		`{"shape":[1,1e0,3],` + key + arr("[1,2,3]") + `}`, `{"shape":[1,01,3],` + key + arr("[1,2,3]") + `}`,
		`{"shape":[1,1,1048577],` + key + arr("[1,2,3]") + `}`, `{"shape":[1,1,99999999999999999999],` + key + arr("[1,2,3]") + `}`,
		`{"model":"flat",` + key + arr("[1,2,3,4]") + `}`,
		// Sized for the model or shape known when the inputs arrived, then told otherwise.
		`{` + key + arr("[1,2,3]") + `,"model":"wide"}`,
		`{"model":"wide",` + key + arr("[1,2,3,4,5,6,7,8,9,10,11,12]") + `,"shape":[3,2,2]}`,
		`{` + key + arr("[1,2,3]") + `,"model":"nobody","shape":[1,1,3]}`,
		`[1,2,3]`, `null`, `"input"`, `12`, ``, ` `, "\ufeff{}",
	} {
		declined = append(declined, []byte(s))
	}
	n := 0
	if batch {
		n = 3
	}
	taken = append(taken, benchBody(tb, "bench", n, 3, 16, 16), benchBody(tb, "", n, 3, 2, 2))
	return taken, declined
}

// TestScannerTakesCanonicalBodies locks which side of the decline contract
// each corpus body falls on — without it the differential check would pass
// on a scanner that declines everything — and that both sides agree with the
// reference.
func TestScannerTakesCanonicalBodies(t *testing.T) {
	for _, batch := range []bool{false, true} {
		taken, declined := seedBodies(t, batch)
		for _, body := range taken {
			if !checkAgainstReference(t, body, batch) {
				t.Errorf("batch=%v: scanner declined canonical body %q", batch, body)
			}
		}
		for _, body := range declined {
			if checkAgainstReference(t, body, batch) {
				t.Errorf("batch=%v: scanner took non-canonical body %q", batch, body)
			}
		}
	}
}

// TestScannerCountsPastTheShape: values beyond the resolved shape are counted
// for the error text and never stored, so the backing stays one sample wide
// however long the array runs.
func TestScannerCountsPastTheShape(t *testing.T) {
	body := []byte(`{"shape":[1,1,2],"input":[` + strings.Repeat("1,", 9999) + `1]}`)
	sc := bodyScanner{b: body, deployed: testShapes}
	if !sc.scan() {
		t.Fatal("scanner declined a canonical over-long input")
	}
	if len(sc.data) != 2 || sc.count != 10000 {
		t.Fatalf("stored %d values, counted %d; want 2 and 10000", len(sc.data), sc.count)
	}
	checkAgainstReference(t, body, false)
}

func fuzzBodies(f *testing.F, batch bool) {
	taken, declined := seedBodies(f, batch)
	for _, body := range append(taken, declined...) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkAgainstReference(t, body, batch) })
}

// FuzzInferBody and FuzzBatchBody hold the direct scanner to the reference
// decode on arbitrary bytes: it declines, or it agrees exactly.
func FuzzInferBody(f *testing.F) { fuzzBodies(f, false) }
func FuzzBatchBody(f *testing.F) { fuzzBodies(f, true) }

// TestInferBodyTooLarge: a body over the inference cap answers 413 on both
// endpoints, where the shared swap-sized cap used to let it through to a 400.
func TestInferBodyTooLarge(t *testing.T) {
	s, _ := testServer(t, nil, nil)
	huge := bytes.Repeat([]byte{' '}, maxInferBodyBytes+1)
	for _, path := range []string{"/v1/infer", "/v1/infer/batch"} {
		w := postJSON(t, s.Handler(), path, huge)
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s over the cap = %d, want 413", path, w.Code)
		}
		var eb errorBody
		if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
			t.Fatal(err)
		}
		if eb.Status != w.Code || eb.Error != "bad request body: http: request body too large" {
			t.Fatalf("%s error body = %+v", path, eb)
		}
	}
}

// TestBatchSampleCap: a batch body holds at most maxBatchSamples samples.
// The cap itself is served; one more answers 413 naming the cap from either
// decoder, before any sample is decoded into a tensor or handed a goroutine.
func TestBatchSampleCap(t *testing.T) {
	// Unlimited admission: the batch's samples all arrive at once.
	s, _ := testServer(t, func(c *fleet.Config) { c.MaxInFlight = -1 }, nil)
	h := s.Handler()
	w := postJSON(t, h, "/v1/infer/batch", benchBody(t, "", maxBatchSamples, 3, 16, 16))
	if w.Code != http.StatusOK {
		t.Fatalf("%d samples = %d: %s", maxBatchSamples, w.Code, w.Body)
	}
	if lines := strings.Count(w.Body.String(), "\n"); lines != maxBatchSamples || strings.Contains(w.Body.String(), "error") {
		t.Fatalf("%d samples streamed %d lines: %.200s", maxBatchSamples, lines, w.Body)
	}
	over := benchBody(t, "", maxBatchSamples+1, 3, 16, 16)
	for name, body := range map[string][]byte{
		"scanner": over,
		"stdlib":  bytes.Replace(over, []byte(`"inputs"`), []byte(`"Inputs"`), 1),
	} {
		w := postJSON(t, h, "/v1/infer/batch", body)
		var eb errorBody
		if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
			t.Fatalf("%s: %v: %s", name, err, w.Body)
		}
		if w.Code != http.StatusRequestEntityTooLarge || eb.Error != "batch of more than 256 samples" {
			t.Fatalf("%s: %d samples = %d %+v, want 413 naming the cap", name, maxBatchSamples+1, w.Code, eb)
		}
	}
}

// TestBatchWiderThanAdmissionIsServed: at the default admission cap (4 ×
// workers × MaxBatch, 32 on this one-worker node) a batch of the full sample
// cap to an idle daemon is served whole — the batch fans out no wider than
// the cap, so it never sheds its own samples.
func TestBatchWiderThanAdmissionIsServed(t *testing.T) {
	s, f := testServer(t, nil, nil)
	if c := f.MaxInFlight(); c <= 0 || c >= maxBatchSamples {
		t.Fatalf("default MaxInFlight = %d, want a cap below the %d-sample batch", c, maxBatchSamples)
	}
	w := postJSON(t, s.Handler(), "/v1/infer/batch", benchBody(t, "", maxBatchSamples, 3, 16, 16))
	if w.Code != http.StatusOK {
		t.Fatalf("%d samples = %d: %s", maxBatchSamples, w.Code, w.Body)
	}
	if lines := strings.Count(w.Body.String(), "\n"); lines != maxBatchSamples || strings.Contains(w.Body.String(), "error") {
		t.Fatalf("%d samples streamed %d lines: %.300s", maxBatchSamples, lines, w.Body)
	}
	if shed := f.ShedTotal(); shed != 0 {
		t.Fatalf("the batch shed %d of its own samples", shed)
	}
}

// TestBatchSampleCapBoundsAllocation: a body cap's worth of empty samples
// (millions of them) answers 413 having allocated for the body and at most
// the cap's worth of samples, not per sample sent — from the scanner, and
// from encoding/json when the scanner declines the body.
func TestBatchSampleCapBoundsAllocation(t *testing.T) {
	s, _ := testServer(t, nil, nil)
	var body bytes.Buffer
	body.WriteString(`{"inputs":[[]`)
	for body.Len() < maxInferBodyBytes-16 {
		body.WriteString(",[]")
	}
	body.WriteString("]}")
	samples := strings.Count(body.String(), "[]")
	for name, b := range map[string][]byte{
		"scanner": body.Bytes(),
		"stdlib":  bytes.Replace(body.Bytes(), []byte(`"inputs"`), []byte(`"Inputs"`), 1),
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		w := postJSON(t, s.Handler(), "/v1/infer/batch", b)
		runtime.ReadMemStats(&after)
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: %d empty samples = %d: %.200s", name, samples, w.Code, w.Body)
		}
		allocs, bytesAlloc := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		t.Logf("%s: %d samples: %d allocations, %d MiB", name, samples, allocs, bytesAlloc>>20)
		if allocs > 1000 || bytesAlloc > 4*maxInferBodyBytes {
			t.Fatalf("%s: %d samples allocated %d times, %d bytes", name, samples, allocs, bytesAlloc)
		}
	}
}

// TestOverCap: the reference decode counts a batch body's samples the way
// encoding/json would read them — the last "inputs" key in any case, the
// first of several values, strings and nested arrays whole — and only
// bodies over the cap are refused before the decode.
func TestOverCap(t *testing.T) {
	over := "[" + strings.Repeat(`[],`, maxBatchSamples) + "[]]"
	atCap := "[" + strings.Repeat(`["]",{"a":[1,2]}],`, maxBatchSamples-1) + "[]]"
	for _, c := range []struct {
		body string
		want bool
	}{
		{`{"inputs":` + over + `}`, true},
		{`{"INPUTS":` + over + `}`, true},
		{`{"inputs":` + over + `,"extra":1,"model":5}`, true},
		{`{"inputs":` + over + `} trailing`, true},
		{`{"inputs":` + over + `}{"inputs":[]}`, true},
		{`{"inputs":[],"inputs":` + over + `}`, true},
		{`{"inputs":` + atCap + `}`, false},
		{`{"inputs":` + over + `,"inputs":[]}`, false},
		{`{"inputs":` + over, false},
		{`{"other":` + over + `}`, false},
		{`{"inputs":"` + over + `"}`, false},
		{`[` + over + `]`, false},
		{``, false},
	} {
		if got := overCap([]byte(c.body)); got != c.want {
			t.Errorf("overCap(%.60q) = %v, want %v", c.body, got, c.want)
		}
	}
}

// TestHandleInferAllocs pins the /v1/infer handler's steady-state allocations
// through the whole middleware chain at what they measure. The request and
// recorder the test builds are inside the count: 42 in all at GOMAXPROCS 1,
// 2, 4 and 8 (the access line boxes nothing), and raceAllocs more under the
// race detector. The budget
// cannot hold the 25 more of encoding/json growing a []float64, should the
// reference decode quietly become the path again, nor one more of anything.
func TestHandleInferAllocs(t *testing.T) {
	s, _ := testServer(t, nil, nil)
	h := s.Handler()
	body := benchBody(t, "", 0, 3, 16, 16)
	rd := bytes.NewReader(body)
	post := func() {
		rd.Reset(body)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/infer", rd))
		if w.Code != http.StatusOK {
			t.Fatalf("infer = %d: %s", w.Code, w.Body)
		}
	}
	for i := 0; i < 8; i++ { // warm the body pool, replicas, arenas
		post()
	}
	allocs := testing.AllocsPerRun(100, post)
	const budget = 42 + raceAllocs
	if allocs > budget {
		t.Fatalf("steady-state POST /v1/infer allocates %.1f/op, budget %d", allocs, budget)
	}
}

// TestHandleInferBatchAllocs is TestHandleInferAllocs for the batch rung: a
// 16-sample POST /v1/infer/batch through the whole middleware chain, pinned
// per sample at what it measures — 138 allocations a request (8.63 a
// sample) at GOMAXPROCS 1, 2, 4 and 8, where one fleet call per sample
// read 249 and a batch's convolutions each built a closure 155 — plus
// raceAllocs under the race detector.
func TestHandleInferBatchAllocs(t *testing.T) {
	s, _ := testServer(t, nil, nil)
	h := s.Handler()
	const n = 16
	body := benchBody(t, "", n, 3, 16, 16)
	rd := bytes.NewReader(body)
	post := func() {
		rd.Reset(body)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/infer/batch", rd))
		if w.Code != http.StatusOK {
			t.Fatalf("batch = %d: %s", w.Code, w.Body)
		}
	}
	for i := 0; i < 8; i++ { // warm the body pool, replicas, arenas
		post()
	}
	perSample := testing.AllocsPerRun(100, post) / n
	const budget = 138.0/n + raceAllocs
	if perSample > budget {
		t.Fatalf("steady-state POST /v1/infer/batch allocates %.2f a sample, budget %.2f", perSample, budget)
	}
}

var decodeSink []sample

// decodeBenchBodies is how many distinct bodies a decode benchmark rotates
// over: one body decoded again and again trains the branch predictor on its
// number lengths and signs, which no stream of requests does.
const decodeBenchBodies = 16

// benchDecode times the reference decode against the scanner over bodies,
// one after another.
func benchDecode(b *testing.B, size string, bodies [][]byte, batch bool) {
	total := 0
	for _, body := range bodies {
		if sc := (bodyScanner{b: body, batch: batch, deployed: testShapes}); !sc.scan() {
			b.Fatal("scanner declined a benchmark body")
		}
		total += len(body)
	}
	for _, path := range []struct {
		name   string
		decode func([]byte, bool, shapeFunc) (string, []sample, error)
	}{{"stdlib", decodeStdlib}, {"direct", decodeSamples}} {
		b.Run(path.name+"/"+size, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(total / len(bodies)))
			for i := 0; i < b.N; i++ {
				_, samples, err := path.decode(bodies[i%len(bodies)], batch, testShapes)
				if err != nil || samples[0].err != nil {
					b.Fatal(err, samples[0].err)
				}
				decodeSink = samples
			}
		})
	}
}

// BenchmarkDecodeInferBody is the decode rung at the two zoo sample sizes, on
// bodies like those the benchmark sends.
func BenchmarkDecodeInferBody(b *testing.B) {
	benchDecode(b, "3x16x16", benchBodies(b, decodeBenchBodies, "bench", 0, 3, 16, 16), false)
	benchDecode(b, "3x32x32", benchBodies(b, decodeBenchBodies, "cifar", 0, 3, 32, 32), false)
}

// BenchmarkDecodeBatchBody is the same rung for fleet_batch_int8's body: 16
// samples into one backing.
func BenchmarkDecodeBatchBody(b *testing.B) {
	benchDecode(b, "16x3x16x16", benchBodies(b, decodeBenchBodies, "bench", 16, 3, 16, 16), true)
}
