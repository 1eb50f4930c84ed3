// Allocation guard for the dedup window. The race detector instruments
// allocations, so this runs only in regular builds (make bench-smoke
// exercises it in CI).

//go:build !race

package resil_test

import "testing"

// TestWindowCommitAllocs pins a tokened write against a full window — the
// steady state of a long run, where every commit evicts — at one allocation:
// the clone of the response. Finding the victim allocates nothing.
func TestWindowCommitAllocs(t *testing.T) {
	w := fullWindow(1024)
	resp := fullResp(0)
	seq := uint64(1025)
	if n := testing.AllocsPerRun(2000, func() {
		seq++
		w.Begin("pn0#1", seq)
		w.Commit("pn0#1", seq, resp)
	}); n != 1 {
		t.Fatalf("Begin+Commit on a full window allocates %.0f times, want 1 (the cloned response)", n)
	}
}
