//go:build race

package httpd

// raceAllocs is what the race detector's instrumentation adds to a
// handler's steady-state allocations per request (TestHandleInferAllocs
// reads 51 at GOMAXPROCS 1 and 2, 52 at 8).
const raceAllocs = 4
