package trace

import "time"

// Sum returns the total attributed time.
func (a *TxnAgg) Sum() time.Duration {
	if a == nil {
		return 0
	}
	var s time.Duration
	for _, d := range a.D {
		s += d
	}
	return s
}
