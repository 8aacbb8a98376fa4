package tensor

import (
	"math/rand"
	"os"
	"syscall"
	"testing"
	"unsafe"
)

// TestGemmI8PatchReadsStopAtSlack puts the patch matrix at the very end of
// readable memory: an anonymous mapping whose last page is PROT_NONE, so a
// read one byte further than allowed faults and kills the test binary. With
// exactly I8Slack bytes of capacity before the guard page the packed
// product must run and match the reference on every kernel; with none, the
// unpacked entry point must still run (it copies the operand rather than
// read past it).
func TestGemmI8PatchReadsStopAtSlack(t *testing.T) {
	page := os.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 4*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[3*page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	readable := unsafe.Slice((*int8)(unsafe.Pointer(&mem[0])), 3*page)
	end := len(readable)
	forEachI8Kernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(8))
		for _, s := range [][3]int{ // m, n, k
			{1, 1, 1}, {5, 4, 3}, {20, 17, 27}, {16, 33, 65}, {3, 15, 63}, {64, 4, 576}, {17, 16, 2}, {48, 16, 288},
		} {
			m, n, k := s[0], s[1], s[2]
			a := randI8(rng, m*k)
			want := make([]int32, m*n)
			got := make([]int32, m*n)
			for _, slack := range []int{I8Slack, 0} {
				b := readable[end-slack-n*k : end-slack : end]
				copy(b, randI8(rng, n*k))
				b[0], b[len(b)-1] = -128, -128
				refGemmI8(want, a, b, m, n, k)
				if slack == I8Slack {
					GemmI8PackedSerial(got, PackI8Weights(a, m, k, 1), b, n)
				} else {
					gemmI8Serial(got, a, b, m, n, k)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("[%dx%dx%d] slack %d: dst[%d] = %d, want %d", m, n, k, slack, i, got[i], want[i])
					}
				}
			}
		}
	})
}
