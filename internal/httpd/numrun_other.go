//go:build !amd64

package httpd

// Off amd64 scanNumber parses every number.
const numLevel = numScalar

func scanRunVBMI(b []byte, i int, dst []float32, count int) (end, n int) {
	panic("httpd: scanRunVBMI called without VBMI support")
}
