package resil_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"tell/internal/det"
	"tell/internal/resil"
	"tell/internal/testutil"
	"tell/internal/wire"
)

func TestWindowExactlyOnce(t *testing.T) {
	w := resil.NewWindow(8)

	// First sighting executes.
	if _, st := w.Begin("pn0", 1); st != resil.StateNew {
		t.Fatalf("first Begin = %v, want new", st)
	}
	// A duplicate racing the in-flight original must not execute.
	if _, st := w.Begin("pn0", 1); st != resil.StateInFlight {
		t.Fatalf("concurrent duplicate = %v, want inflight", st)
	}
	w.Commit("pn0", 1, []byte("resp-1"))
	// A duplicate after completion replays the cached response.
	cached, st := w.Begin("pn0", 1)
	if st != resil.StateReplay {
		t.Fatalf("post-commit duplicate = %v, want replay", st)
	}
	if string(cached) != "resp-1" {
		t.Fatalf("replayed %q, want resp-1", cached)
	}
	if w.Replays() != 1 {
		t.Fatalf("Replays = %d, want 1", w.Replays())
	}
	// Clients are independent.
	if _, st := w.Begin("pn1", 1); st != resil.StateNew {
		t.Fatalf("other client's seq 1 = %v, want new", st)
	}
	// Seq 0 is the no-token value: always processed, never tracked.
	if _, st := w.Begin("pn0", 0); st != resil.StateNew {
		t.Fatalf("seq 0 = %v, want new", st)
	}
	if _, st := w.Begin("pn0", 0); st != resil.StateNew {
		t.Fatalf("second seq 0 = %v, want new (untracked)", st)
	}
}

func TestWindowAbortAllowsRetry(t *testing.T) {
	w := resil.NewWindow(8)
	if _, st := w.Begin("pn0", 5); st != resil.StateNew {
		t.Fatalf("Begin = %v", st)
	}
	w.Abort("pn0", 5) // shed: not executed, no response cached
	if _, st := w.Begin("pn0", 5); st != resil.StateNew {
		t.Fatalf("retry after abort = %v, want new", st)
	}
}

// TestWindowReplayByteIdentical is the satellite property test: the
// replayed response is byte-identical to the original, and both the cached
// copy and every replayed copy are private — mutating the buffer the
// server handed to the transport (which recycles it) or a previously
// replayed buffer cannot corrupt later replays.
func TestWindowReplayByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(testutil.Seed(t, 11)))
	w := resil.NewWindow(64)
	for i := 1; i <= 50; i++ {
		orig := make([]byte, rng.Intn(200))
		rng.Read(orig)
		want := append([]byte(nil), orig...)

		if _, st := w.Begin("c", uint64(i)); st != resil.StateNew {
			t.Fatalf("seq %d: Begin = %v", i, st)
		}
		w.Commit("c", uint64(i), orig)
		// The server's buffer is recycled by the transport after send:
		// scribble over it.
		for j := range orig {
			orig[j] ^= 0xff
		}
		first, st := w.Begin("c", uint64(i))
		if st != resil.StateReplay {
			t.Fatalf("seq %d: dup = %v", i, st)
		}
		if !bytes.Equal(first, want) {
			t.Fatalf("seq %d: replay differs from original response", i)
		}
		// The replayed buffer is recycled too; a second replay must
		// still match.
		for j := range first {
			first[j] = 0
		}
		second, st := w.Begin("c", uint64(i))
		if st != resil.StateReplay || !bytes.Equal(second, want) {
			t.Fatalf("seq %d: second replay corrupted (st=%v)", i, st)
		}
	}
}

func TestWindowEvictionRaisesFloor(t *testing.T) {
	w := resil.NewWindow(4)
	for i := 1; i <= 10; i++ {
		if _, st := w.Begin("c", uint64(i)); st != resil.StateNew {
			t.Fatalf("seq %d: %v", i, st)
		}
		w.Commit("c", uint64(i), []byte{byte(i)})
	}
	// Seqs 7..10 are retained, 1..6 evicted below the floor.
	for i := 7; i <= 10; i++ {
		if _, st := w.Begin("c", uint64(i)); st != resil.StateReplay {
			t.Fatalf("seq %d: %v, want replay", i, st)
		}
	}
	for i := 1; i <= 6; i++ {
		if _, st := w.Begin("c", uint64(i)); st != resil.StateStale {
			t.Fatalf("seq %d: %v, want stale", i, st)
		}
	}
}

func TestWindowCodecRoundTrip(t *testing.T) {
	w := resil.NewWindow(16)
	for c := 0; c < 3; c++ {
		client := fmt.Sprintf("pn%d", c)
		for i := 1; i <= 20; i++ { // overflows Cap → nonzero floor
			w.Begin(client, uint64(i))
			w.Commit(client, uint64(i), []byte(fmt.Sprintf("%s-%d", client, i)))
		}
	}
	enc := w.Encode()
	got, err := resil.DecodeWindow(enc)
	if err != nil {
		t.Fatalf("DecodeWindow: %v", err)
	}
	// Round trip must be a fixpoint (deterministic order, same content).
	if !bytes.Equal(got.Encode(), enc) {
		t.Fatal("Encode(Decode(Encode(w))) != Encode(w)")
	}
	// Decoded windows must behave identically: replay and floor survive.
	cached, st := got.Begin("pn1", 20)
	if st != resil.StateReplay || string(cached) != "pn1-20" {
		t.Fatalf("decoded replay: st=%v resp=%q", st, cached)
	}
	if _, st := got.Begin("pn1", 1); st != resil.StateStale {
		t.Fatalf("decoded floor: seq 1 = %v, want stale", st)
	}
}

func TestWindowCodecEmpty(t *testing.T) {
	w := resil.NewWindow(8)
	got, err := resil.DecodeWindow(w.Encode())
	if err != nil {
		t.Fatalf("DecodeWindow(empty): %v", err)
	}
	if !bytes.Equal(got.Encode(), w.Encode()) {
		t.Fatal("empty round trip not a fixpoint")
	}
}

func TestDecodeWindowRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{
		nil,
		{},
		{0xff},                  // bad version
		{1, 8, 5},               // client count beyond buffer
		{1, 8, 1, 2, 'a'},       // truncated client id
		{1, 8, 1, 1, 'a', 0, 9}, // done count beyond buffer
	} {
		if _, err := resil.DecodeWindow(b); err == nil {
			t.Errorf("DecodeWindow(%v) accepted garbage", b)
		}
	}
}

// refWindow is the window as it was first written — a map of completed
// seqs per client, re-sorted in full to find the eviction victims — kept as
// the reference model the ordered-ring implementation must agree with.
type refWindow struct {
	cap     int
	clients map[string]*refClient
	replays uint64
}

type refClient struct {
	floor    uint64
	done     map[uint64][]byte
	inflight map[uint64]struct{}
}

func newRefWindow(cap int) *refWindow {
	return &refWindow{cap: cap, clients: make(map[string]*refClient)}
}

func (w *refWindow) client(id string) *refClient {
	c := w.clients[id]
	if c == nil {
		c = &refClient{done: make(map[uint64][]byte), inflight: make(map[uint64]struct{})}
		w.clients[id] = c
	}
	return c
}

func (w *refWindow) Begin(client string, seq uint64) ([]byte, resil.BeginState) {
	if seq == 0 || client == "" {
		return nil, resil.StateNew
	}
	c := w.client(client)
	if resp, ok := c.done[seq]; ok {
		w.replays++
		return append([]byte(nil), resp...), resil.StateReplay
	}
	if seq <= c.floor {
		return nil, resil.StateStale
	}
	if _, ok := c.inflight[seq]; ok {
		return nil, resil.StateInFlight
	}
	c.inflight[seq] = struct{}{}
	return nil, resil.StateNew
}

func (w *refWindow) Commit(client string, seq uint64, resp []byte) {
	if seq == 0 || client == "" {
		return
	}
	c := w.client(client)
	delete(c.inflight, seq)
	c.done[seq] = append([]byte(nil), resp...)
	if len(c.done) > w.cap {
		seqs := det.Keys(c.done)
		for _, s := range seqs[:len(seqs)-w.cap] {
			delete(c.done, s)
			if s > c.floor {
				c.floor = s
			}
		}
	}
}

func (w *refWindow) Abort(client string, seq uint64) {
	if c := w.clients[client]; c != nil && seq != 0 {
		delete(c.inflight, seq)
	}
}

func (w *refWindow) Encode() []byte {
	wr := wire.NewWriter(64)
	wr.Byte(1)
	wr.Uvarint(uint64(w.cap))
	var ids []string
	for _, id := range det.Keys(w.clients) {
		if c := w.clients[id]; c.floor != 0 || len(c.done) != 0 {
			ids = append(ids, id)
		}
	}
	wr.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		c := w.clients[id]
		wr.String(id)
		wr.Uvarint(c.floor)
		wr.Uvarint(uint64(len(c.done)))
		for _, seq := range det.Keys(c.done) {
			wr.Uvarint(seq)
			wr.BytesN(c.done[seq])
		}
	}
	return wr.Bytes()
}

// TestWindowMatchesReferenceModel drives random Begin/Commit/Abort
// sequences — several clients, completions out of order, duplicates of
// in-flight, completed and evicted tokens, commits of tokens the floor has
// already passed — against the reference model. Verdicts, replayed bytes,
// the replay count and the encoded state (which carries every floor and
// every retained entry, in order) must agree after every step, and a
// window decoded from that state must carry on identically.
func TestWindowMatchesReferenceModel(t *testing.T) {
	for _, cap := range []int{1, 4, 16} {
		seed := testutil.Seed(t, int64(100+cap))
		rng := rand.New(rand.NewSource(seed))
		w, ref := resil.NewWindow(cap), newRefWindow(cap)
		clients := []string{"pn0#1", "pn1#1", "pn1#2"}
		next := make([]uint64, len(clients))   // highest seq issued per client
		open := make([][]uint64, len(clients)) // tokens Begin classified new, not yet sealed
		for step := 0; step < 4000; step++ {
			ci := rng.Intn(len(clients))
			client := clients[ci]
			switch r := rng.Intn(10); {
			case r < 4: // Begin: a fresh token, or a duplicate of a recent or long-gone one
				var seq uint64
				switch d := rng.Intn(4); {
				case d == 0 && next[ci] > 0:
					seq = 1 + uint64(rng.Int63n(int64(next[ci])))
				case d == 1 && next[ci] > 0:
					seq = next[ci] - uint64(rng.Int63n(int64(min(next[ci], uint64(cap+2)))))
				default:
					next[ci]++
					seq = next[ci]
				}
				got, gotSt := w.Begin(client, seq)
				want, wantSt := ref.Begin(client, seq)
				if gotSt != wantSt || !bytes.Equal(got, want) {
					t.Fatalf("seed %d cap %d step %d: Begin(%s,%d) = %q,%v, model says %q,%v",
						seed, cap, step, client, seq, got, gotSt, want, wantSt)
				}
				if gotSt == resil.StateNew {
					open[ci] = append(open[ci], seq)
				}
			case r < 9 && len(open[ci]) > 0: // seal any open token: commit, or abort now and then
				k := rng.Intn(len(open[ci]))
				seq := open[ci][k]
				open[ci] = append(open[ci][:k], open[ci][k+1:]...)
				if rng.Intn(8) == 0 {
					w.Abort(client, seq)
					ref.Abort(client, seq)
				} else {
					resp := []byte(fmt.Sprintf("%s/%d/%d", client, seq, step))
					w.Commit(client, seq, resp)
					ref.Commit(client, seq, resp)
				}
			default: // a commit nobody began: a replayed duplicate sealing again
				if next[ci] == 0 {
					continue
				}
				seq := 1 + uint64(rng.Int63n(int64(next[ci])))
				resp := []byte(fmt.Sprintf("%s/%d/again%d", client, seq, step))
				w.Commit(client, seq, resp)
				ref.Commit(client, seq, resp)
			}
			if w.Replays() != ref.replays {
				t.Fatalf("seed %d cap %d step %d: Replays = %d, model says %d", seed, cap, step, w.Replays(), ref.replays)
			}
			enc := w.Encode()
			if !bytes.Equal(enc, ref.Encode()) {
				t.Fatalf("seed %d cap %d step %d: Encode differs from the model", seed, cap, step)
			}
			if step%500 == 499 {
				// Carry on from the checkpointed state. In-flight tokens are
				// not part of it: forget them on both sides.
				dec, err := resil.DecodeWindow(enc)
				if err != nil {
					t.Fatalf("seed %d cap %d step %d: DecodeWindow: %v", seed, cap, step, err)
				}
				w = dec
				ref.replays = 0
				for _, c := range ref.clients {
					c.inflight = make(map[uint64]struct{})
				}
				for i := range open {
					open[i] = nil
				}
			}
		}
	}
}

// TestWindowFullRoundTrip checks the shape the benchmark runs in: one
// client whose window is full, so that every commit evicts. The decoded
// window must encode to the same bytes and evict the same entry next.
func TestWindowFullRoundTrip(t *testing.T) {
	w, ref := fullWindow(1024), newRefWindow(1024)
	for seq := uint64(1); seq <= 1025; seq++ {
		ref.Commit("pn0#1", seq, fullResp(seq))
	}
	enc := w.Encode()
	if !bytes.Equal(enc, ref.Encode()) {
		t.Fatal("full window encodes differently from the model")
	}
	dec, err := resil.DecodeWindow(enc)
	if err != nil {
		t.Fatalf("DecodeWindow: %v", err)
	}
	if !bytes.Equal(dec.Encode(), enc) {
		t.Fatal("full window round trip is not a fixpoint")
	}
	dec.Begin("pn0#1", 1026)
	dec.Commit("pn0#1", 1026, fullResp(1026))
	ref.Commit("pn0#1", 1026, fullResp(1026))
	if !bytes.Equal(dec.Encode(), ref.Encode()) {
		t.Fatal("decoded full window evicted differently from the model")
	}
	if _, st := dec.Begin("pn0#1", 2); st != resil.StateStale {
		t.Fatalf("seq 2 after two evictions = %v, want stale", st)
	}
	if got, st := dec.Begin("pn0#1", 3); st != resil.StateReplay || !bytes.Equal(got, fullResp(3)) {
		t.Fatalf("seq 3 = %q,%v, want its replay", got, st)
	}
}

func fullResp(seq uint64) []byte { return []byte(fmt.Sprintf("result-of-write-%08d", seq)) }

// fullWindow returns a window whose one client has completed cap+1 tokens:
// full, with the first eviction behind it.
func fullWindow(cap int) *resil.Window {
	w := resil.NewWindow(cap)
	for seq := uint64(1); seq <= uint64(cap)+1; seq++ {
		w.Begin("pn0#1", seq)
		w.Commit("pn0#1", seq, fullResp(seq))
	}
	return w
}

// BenchmarkWindowCommitFull is the steady state of a long run: the client's
// window holds its 1,024 entries and every tokened write evicts one.
func BenchmarkWindowCommitFull(b *testing.B) {
	w := fullWindow(1024)
	resp := fullResp(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := uint64(1026 + i)
		w.Begin("pn0#1", seq)
		w.Commit("pn0#1", seq, resp)
	}
}
