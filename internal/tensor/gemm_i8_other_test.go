//go:build !amd64

package tensor

// withI8Level runs fn with the int8 dispatch pinned to kernel l and reports
// whether it could: off amd64 only the scalar kernel exists.
func withI8Level(l i8Kernel, fn func()) bool {
	if l != i8Scalar {
		return false
	}
	fn()
	return true
}

// withSIMD runs fn with the float32 vector kernels on or off and reports
// whether it could: off amd64 there are none to turn on.
func withSIMD(on bool, fn func()) bool {
	if on {
		return false
	}
	fn()
	return true
}
