//go:build telldebug

package sanitize

// Reset clears recorded inversions and the acquisition graph. Held-lock
// state survives: locks held across Reset keep being tracked.
func Reset() {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	registry.edges = make(map[edgeKey]string)
	registry.seen = make(map[edgeKey]bool)
	registry.inversions = nil
}
