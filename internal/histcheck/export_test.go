package histcheck

// Stats returns (transactions begun, committed, aborted, reads recorded).
func (h *History) Stats() (begun, committed, aborted, reads int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, s := range h.status {
		if s == 'c' {
			committed++
		} else {
			aborted++
		}
	}
	return len(h.snaps), committed, aborted, len(h.reads)
}
