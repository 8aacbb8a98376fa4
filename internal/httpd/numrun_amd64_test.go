//go:build amd64

package httpd

// withNumLevel runs fn with scanValues pinned to number kernel l and reports
// whether it could: a kernel above the detected one is one this CPU lacks.
func withNumLevel(l numKernel, fn func()) bool {
	if l > numLevel {
		return false
	}
	defer func(v numKernel) { numLevel = v }(numLevel)
	numLevel = l
	fn()
	return true
}
