package ndblike

// LockWaits returns how many lock acquisitions had to wait.
func (e *Engine) LockWaits() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lockWaits
}
