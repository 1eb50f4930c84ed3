//go:build !telldebug

package sanitize

import "testing"

// TestPassthrough checks the non-debug build is a plain mutex: usable zero
// value, no-op SetName, empty reports.
func TestPassthrough(t *testing.T) {
	if Enabled {
		t.Fatal("Enabled must be false without the telldebug tag")
	}
	var m Mutex
	m.SetName("x")
	m.Lock()
	m.Unlock()
	var rw RWMutex
	rw.SetName("y")
	rw.RLock()
	rw.RUnlock()
	rw.Lock()
	rw.Unlock()
	if Inversions() != nil {
		t.Fatal("non-debug build must report nothing")
	}
}
