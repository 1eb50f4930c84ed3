package transport

// SetDown marks addr as failed or recovered.
func (n *LocalNet) SetDown(addr string, down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down[addr] = down
}

// Addr returns the bound address of the i-th listener (useful with ":0").
func (t *TCPNet) Addr(i int) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i < 0 || i >= len(t.listeners) {
		return ""
	}
	return t.listeners[i].Addr().String()
}
