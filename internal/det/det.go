// Package det holds small helpers for deterministic iteration. Engine code
// may not let map-iteration order reach simulation-visible state (enforced
// by the maporder analyzer, see internal/lint); the canonical fix is to
// iterate over sorted keys, which these helpers make a one-liner.
package det

import (
	"cmp"
	"slices"
)

// Keys returns the keys of m in ascending order. Iterating a map through
// Keys makes the loop order deterministic:
//
//	for _, k := range det.Keys(m) {
//		use(k, m[k])
//	}
//
// Every call allocates and sorts the whole key set: it is for control paths
// and small maps, never for a per-request walk of a map that grows with load.
func Keys[M ~map[K]V, K cmp.Ordered, V any](m M) []K {
	ks := make([]K, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}
