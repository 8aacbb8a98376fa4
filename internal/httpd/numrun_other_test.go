//go:build !amd64

package httpd

// withNumLevel runs fn with scanValues pinned to number kernel l and reports
// whether it could: off amd64 only scanNumber exists.
func withNumLevel(l numKernel, fn func()) bool {
	if l != numScalar {
		return false
	}
	fn()
	return true
}
