package tensor

import "syscall"

// requestTileData asks Linux for permission to use AMX tile data
// (arch_prctl ARCH_REQ_XCOMP_PERM, XFEATURE_XTILEDATA). The permission is
// process-wide and must precede the first tile instruction: the kernel
// arms the extended-feature-disable fault for tile data until it is
// granted. Linux grants it only when every thread's signal stack can hold
// the tile state; Go's 32 KiB signal stacks can.
func requestTileData() bool {
	const archReqXCompPerm, xfeatureXTileData = 0x1023, 18
	_, _, errno := syscall.RawSyscall(syscall.SYS_ARCH_PRCTL, archReqXCompPerm, xfeatureXTileData, 0)
	return errno == 0
}
