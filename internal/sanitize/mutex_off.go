//go:build !telldebug

package sanitize

import "sync"

// Enabled reports whether the build carries the telldebug instrumentation.
const Enabled = false

// Mutex is a plain sync.Mutex in non-debug builds. The embedded field (not
// an alias) keeps the method set identical across build modes so code using
// sanitize.Mutex compiles the same way with and without the tag.
type Mutex struct {
	sync.Mutex
}

// SetName is a no-op without telldebug.
func (m *Mutex) SetName(string) {}

// RWMutex is a plain sync.RWMutex in non-debug builds.
type RWMutex struct {
	sync.RWMutex
}

// SetName is a no-op without telldebug.
func (m *RWMutex) SetName(string) {}

// Inversions returns the lock-order inversions observed so far (always nil
// without telldebug).
func Inversions() []Inversion { return nil }
