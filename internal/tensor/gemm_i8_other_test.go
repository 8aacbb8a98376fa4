//go:build !amd64

package tensor

// forEachI8Kernel runs fn once per int8 micro kernel this platform has: off
// amd64 that is the scalar kernel alone.
func forEachI8Kernel(fn func(simd bool)) { fn(false) }
