package tee

import (
	"fmt"
	"sync"
)

// ErrSecureMemoryExhausted is returned when an allocation would exceed the
// device's secure-memory capacity.
type ErrSecureMemoryExhausted struct {
	Requested, Used, Capacity int64
}

// Error implements the error interface.
func (e *ErrSecureMemoryExhausted) Error() string {
	return fmt.Sprintf("tee: secure memory exhausted: requested %d with %d/%d in use",
		e.Requested, e.Used, e.Capacity)
}

// SecureMemory is an accounting allocator for the secure world. It tracks
// live and peak usage against a capacity; deployments use it to report (and
// bound) the TEE footprint the paper's Fig. 3 compares.
//
// All methods are safe for concurrent use: the idle-model reaper, hot swaps,
// and the autoscaler's warm-then-drain resizes all reserve and release
// against the same device budget from independent goroutines.
type SecureMemory struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	peak     int64
}

// NewSecureMemory returns an accountant with the given capacity in bytes.
// A capacity of 0 means unlimited (useful for pure measurement).
func NewSecureMemory(capacity int64) *SecureMemory {
	return &SecureMemory{capacity: capacity}
}

// Alloc reserves n bytes, returning ErrSecureMemoryExhausted when the
// capacity would be exceeded.
func (m *SecureMemory) Alloc(n int64) error {
	if n < 0 {
		panic("tee: negative allocation")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.capacity > 0 && m.used+n > m.capacity {
		return &ErrSecureMemoryExhausted{Requested: n, Used: m.used, Capacity: m.capacity}
	}
	m.used += n
	if m.used > m.peak {
		m.peak = m.used
	}
	return nil
}

// Free releases n bytes. Releasing more than is in use panics: that is a
// deployment accounting bug, not a runtime condition.
func (m *SecureMemory) Free(n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n > m.used {
		panic(fmt.Sprintf("tee: freeing %d bytes with only %d in use", n, m.used))
	}
	m.used -= n
}

// Used returns the live byte count.
func (m *SecureMemory) Used() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.used
}

// Peak returns the high-water mark.
func (m *SecureMemory) Peak() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.peak
}
