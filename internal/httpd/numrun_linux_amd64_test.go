//go:build linux && amd64

package httpd

import (
	"math/rand"
	"os"
	"syscall"
	"testing"
)

// TestScanRunReadsOnlyTheBody puts each array flush against a PROT_NONE
// page, once at the start of the readable memory between two of them and
// once at its end, so a load that reaches past the body — a number's 64
// bytes read where fewer remain — faults and kills the test binary. Wire
// arrays of every length from 1 to 40 numbers and the edge arrays run at
// every level and must match scanNumber alone.
func TestScanRunReadsOnlyTheBody(t *testing.T) {
	const pages = 2
	page := os.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, (pages+2)*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	for _, guard := range [][]byte{mem[:page], mem[(pages+1)*page:]} {
		if err := syscall.Mprotect(guard, syscall.PROT_NONE); err != nil {
			t.Skipf("mprotect: %v", err)
		}
	}
	readable := mem[page : (pages+1)*page]
	rng := rand.New(rand.NewSource(47))
	arrays := edgeArrays(rng)
	for n := 1; n <= 40; n++ {
		arrays = append(arrays, wireArray(rng, n))
	}
	forEachNumLevel(t, func(t *testing.T) {
		for _, a := range arrays {
			size := len(a)
			for _, b := range [][]byte{readable[:size:size], readable[len(readable)-size:]} {
				copy(b, a)
				checkScanRun(t, b, size/2)
			}
		}
	})
}
