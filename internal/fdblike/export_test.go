package fdblike

// Conflicts returns the number of optimistic aborts.
func (e *Engine) Conflicts() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.conflictCnt
}
