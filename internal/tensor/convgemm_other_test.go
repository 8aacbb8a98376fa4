//go:build !(linux && amd64)

package tensor

import "testing"

// TestConvGemmReadsOnlyTheImage needs the masked loads of the amd64 packer
// and Linux's mmap/mprotect to fence the image; see the linux/amd64 file.
func TestConvGemmReadsOnlyTheImage(t *testing.T) {
	t.Skip("the guard-page check runs on linux/amd64 only")
}
