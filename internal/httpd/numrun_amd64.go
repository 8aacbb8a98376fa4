//go:build amd64

package httpd

import "tbnet/internal/tensor"

// numLevel is the number-run kernel scanValues runs: the vector one when
// this CPU passes its CPUID gate. A variable only so tests can walk down to
// scalar.
var numLevel = detectNumKernel()

func detectNumKernel() numKernel {
	if tensor.VBMIUsable() {
		return numVBMI
	}
	return numScalar
}

// scanRunVBMI parses the run of common-shape numbers at b[i:] (see
// numrun_amd64.s), storing them at dst[count:] while they fit, and returns
// the index of the ',' or ']' after the last it took and count plus how many
// it took.
//
//go:noescape
func scanRunVBMI(b []byte, i int, dst []float32, count int) (end, n int)
