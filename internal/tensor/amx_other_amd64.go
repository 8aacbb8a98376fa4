//go:build amd64 && !linux

package tensor

// requestTileData reports whether this process may use AMX tile data. Only
// the Linux permission request is implemented; elsewhere the int8 kernel
// stays on AVX512-VNNI.
func requestTileData() bool { return false }
