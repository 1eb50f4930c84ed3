package recovery

// Recoveries returns how many PN recoveries completed.
func (m *Manager) Recoveries() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recoveries
}

// RolledBack returns the total number of transactions reverted.
func (m *Manager) RolledBack() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rolledBack
}
