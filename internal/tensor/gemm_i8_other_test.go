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

// withF32Level runs fn with the float32 dispatch pinned to level l and
// reports whether it could: off amd64 only the scalar level exists.
func withF32Level(l f32Kernel, fn func()) bool {
	if l != f32Scalar {
		return false
	}
	fn()
	return true
}
