//go:build !race

package httpd

// raceAllocs is zero without the race detector (see race_on_test.go).
const raceAllocs = 0
