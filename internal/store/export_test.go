package store

import (
	"time"

	"tell/internal/resil"
)

// SetAdmission reconfigures the admission gate: at most maxInflight client
// batches execute concurrently; arrivals beyond that wait up to queueDeadline
// for a slot and are then shed with StatusOverload.
func (sn *Node) SetAdmission(maxInflight int, queueDeadline time.Duration) {
	sn.gate = resil.NewGate(sn.envr, maxInflight, queueDeadline)
}

// Keys returns the number of stored cells (for tests and capacity checks).
func (sn *Node) Keys() int {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	return sn.mt.len()
}
