//go:build !(linux && amd64)

package httpd

import "testing"

// TestScanRunReadsOnlyTheBody needs the amd64 number kernel and Linux's
// mmap/mprotect to fence the body; see the linux/amd64 file.
func TestScanRunReadsOnlyTheBody(t *testing.T) {
	t.Skip("the guard-page check runs on linux/amd64 only")
}
