// Allocation guard for the dedup window. The race detector instruments
// allocations, so this runs only in regular builds (make bench-smoke
// exercises it in CI).

//go:build !race

package resil_test

import (
	"testing"

	"tell/internal/env"
	"tell/internal/resil"
	"tell/internal/transport"
)

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

// TestCallAllocs pins a successful retried call at zero allocations: it sits
// on the store client's per-batch path, and the attempt closure and the
// caller's response check must both stay on the stack.
func TestCallAllocs(t *testing.T) {
	e := env.NewReal(1)
	ctx, _ := env.DetachedCtx(e.NewNode("pn0", 1))
	r := resil.NewRetrier()
	var conn transport.Conn = okConn("ok")
	req := []byte("request")
	var checked int
	check := func([]byte) error { checked++; return nil }
	if n := testing.AllocsPerRun(1000, func() {
		if _, _, err := r.Call(ctx, resil.ClassWrite, "sn0", conn, req, check); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Call allocates %.0f times, want 0", n)
	}
}

// okConn answers every request with itself, recording nothing.
type okConn []byte

func (c okConn) RoundTrip(env.Ctx, []byte) ([]byte, error) { return c, nil }
func (c okConn) Close() error                              { return nil }
