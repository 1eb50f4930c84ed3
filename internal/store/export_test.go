package store

// Keys returns the number of stored cells (for tests and capacity checks).
func (sn *Node) Keys() int {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	return sn.mt.len()
}
