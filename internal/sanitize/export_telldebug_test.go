//go:build telldebug

package sanitize

import "time"

// LongHolds returns the overlong critical sections observed so far.
func LongHolds() []LongHold {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	out := make([]LongHold, len(registry.longHolds))
	copy(out, registry.longHolds)
	return out
}

// Reset clears recorded inversions, long holds and the acquisition graph.
// Held-lock state survives: locks held across Reset keep being tracked.
func Reset() {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	registry.edges = make(map[edgeKey]string)
	registry.seen = make(map[edgeKey]bool)
	registry.inversions = nil
	registry.longHolds = nil
}

// SetLongHoldThreshold sets the wall-clock hold time above which an Unlock
// records a LongHold.
func SetLongHoldThreshold(millis int64) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	registry.threshold = time.Duration(millis) * time.Millisecond
}
