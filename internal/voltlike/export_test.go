package voltlike

// Stats returns (single-partition, multi-partition) transaction counts.
func (e *Engine) Stats() (single, multi uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.singleTx, e.multiTx
}
