package commitmgr_test

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"tell/internal/commitmgr"
	"tell/internal/env"
	"tell/internal/mvcc"
	"tell/internal/wire"
)

// FuzzGroupWire feeds arbitrary bytes to the grouped-CM decoders. Corrupt
// input must fail cleanly; input that decodes must reach an encode fixpoint
// by the second generation (the original bytes may hold non-canonical
// varints the encoder normalizes).
func FuzzGroupWire(f *testing.F) {
	f.Add([]byte{})
	f.Add((&commitmgr.StartGroupReq{
		Client: "pn0", AckServer: "cm0", AckSeq: 3, Count: 4,
		Fins: []commitmgr.FinNote{{TID: 17, Committed: true}, {TID: 19}},
	}).Encode())
	f.Add((&commitmgr.StartGroupReq{Count: 1}).Encode())
	full := mvcc.NewSnapshot(100)
	full.Add(103)
	full.Add(170)
	f.Add((&commitmgr.StartGroupResp{
		Status: wire.StatusOK, TIDs: []uint64{171, 172}, Server: "cm0",
		Seq: 4, Full: true, Snap: full, Lav: 99,
	}).Encode())
	next := full.Clone()
	next.Add(171)
	delta := mvcc.Diff(full, next)
	f.Add((&commitmgr.StartGroupResp{
		Status: wire.StatusOK, TIDs: []uint64{173}, Server: "cm0",
		Seq: 5, Full: false, Delta: delta, Lav: 100,
	}).Encode())
	f.Add((&commitmgr.StartGroupResp{Status: wire.StatusUnavailable}).Encode())
	// Corrupt variants: truncated, oversized counts, bit noise.
	f.Add([]byte{byte(wire.KindCMReq), 3})
	f.Add([]byte{byte(wire.KindCMResp), 3, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := commitmgr.DecodeStartGroupReq(data); err == nil {
			e1 := m.Encode()
			m2, err := commitmgr.DecodeStartGroupReq(e1)
			if err != nil {
				t.Fatalf("re-decode StartGroupReq: %v", err)
			}
			if e2 := m2.Encode(); !bytes.Equal(e1, e2) {
				t.Fatalf("StartGroupReq fixpoint: % x != % x", e1, e2)
			}
		}
		if m, err := commitmgr.DecodeStartGroupResp(data); err == nil {
			e1 := m.Encode()
			m2, err := commitmgr.DecodeStartGroupResp(e1)
			if err != nil {
				t.Fatalf("re-decode StartGroupResp: %v", err)
			}
			if e2 := m2.Encode(); !bytes.Equal(e1, e2) {
				t.Fatalf("StartGroupResp fixpoint: % x != % x", e1, e2)
			}
		}
	})
}

// TestGroupWireDecodeGarbageNeverPanics hammers the grouped decoders with
// random buffers (the continuous-fuzzing session goes further; this keeps a
// fast deterministic sample in the regular run).
func TestGroupWireDecodeGarbageNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		buf := make([]byte, rng.Intn(200))
		rng.Read(buf)
		// Half the probes get a valid prefix so decoding reaches the body.
		if i%2 == 0 && len(buf) >= 2 {
			if i%4 == 0 {
				buf[0] = byte(wire.KindCMReq)
			} else {
				buf[0] = byte(wire.KindCMResp)
			}
			buf[1] = 3
		}
		commitmgr.DecodeStartGroupReq(buf)
		commitmgr.DecodeStartGroupResp(buf)
	}
}

// TestGroupedStartsUseDeltas drives commit cycles through the coalescing
// client and asserts, via the manager's telemetry counters, that the steady
// state ships delta descriptors: after the first full response every
// subsequent grouped response should ride the intact ack chain.
func TestGroupedStartsUseDeltas(t *testing.T) {
	h := newCMHarness(t, 1)
	h.run(t, func(ctx env.Ctx) {
		for i := 0; i < 40; i++ {
			r, err := h.client.Start(ctx)
			if err != nil {
				t.Fatalf("start: %v", err)
			}
			h.client.Committed(ctx, r.TID)
		}
		deltas, fulls := cmCounters(t, ctx, h, "cm0")
		if fulls == 0 || deltas == 0 {
			t.Fatalf("deltas=%d fulls=%d: want at least one of each (first response is full, rest delta)", deltas, fulls)
		}
		if deltas < 30 {
			t.Fatalf("only %d of ~40 grouped responses were deltas (fulls=%d); ack chain keeps breaking", deltas, fulls)
		}
	})
}

// TestAckGapForcesFullResync breaks the ack chain deliberately — a stale
// AckSeq, as after a lost response — and checks the manager answers with a
// full descriptor rather than a delta the client could not apply.
func TestAckGapForcesFullResync(t *testing.T) {
	h := newCMHarness(t, 1)
	h.run(t, func(ctx env.Ctx) {
		conn, err := h.net.Dial(h.pn, "cm0")
		if err != nil {
			t.Fatal(err)
		}
		send := func(req *commitmgr.StartGroupReq) *commitmgr.StartGroupResp {
			raw, err := conn.RoundTrip(ctx, req.Encode())
			if err != nil {
				t.Fatalf("round trip: %v", err)
			}
			resp, err := commitmgr.DecodeStartGroupResp(raw)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if resp.Status != wire.StatusOK {
				t.Fatalf("status %v", resp.Status)
			}
			return resp
		}
		// Establish the chain: first response is necessarily full.
		r1 := send(&commitmgr.StartGroupReq{Client: "probe", Count: 1})
		if !r1.Full {
			t.Fatal("first grouped response must carry the full descriptor")
		}
		// Intact ack: this one may be a delta.
		r2 := send(&commitmgr.StartGroupReq{
			Client: "probe", AckServer: r1.Server, AckSeq: r1.Seq, Count: 1,
			Fins: []commitmgr.FinNote{{TID: r1.TIDs[0], Committed: true}},
		})
		if r2.Full {
			t.Fatal("intact ack chain did not produce a delta")
		}
		// Gap: replay the old seq (as if r2's response was lost). The
		// manager's memory is at seq r2.Seq, so r1.Seq must not match and
		// the answer must be full — a delta against r1's descriptor would
		// desynchronize the client.
		r3 := send(&commitmgr.StartGroupReq{
			Client: "probe", AckServer: r2.Server, AckSeq: r1.Seq, Count: 1,
			Fins: []commitmgr.FinNote{{TID: r2.TIDs[0], Committed: true}},
		})
		if !r3.Full {
			t.Fatal("stale AckSeq (gap) answered with a delta; must force full resync")
		}
		// Unknown server id (fail-over echo) must also force full.
		r4 := send(&commitmgr.StartGroupReq{
			Client: "probe", AckServer: "cm-gone", AckSeq: r3.Seq, Count: 1,
			Fins: []commitmgr.FinNote{{TID: r3.TIDs[0], Committed: true}},
		})
		if !r4.Full {
			t.Fatal("foreign AckServer answered with a delta; must force full resync")
		}
		send(&commitmgr.StartGroupReq{
			Client: "probe",
			Fins:   []commitmgr.FinNote{{TID: r4.TIDs[0], Committed: true}},
		})
	})
}

// TestFailOverResyncsDeltaState kills the primary manager mid-stream and
// checks the client keeps operating correctly: the fail-over lands on a
// manager with no descriptor memory for this client, so the client must
// resync on a full descriptor and rebuild the chain — visible as correct
// snapshots throughout.
func TestFailOverResyncsDeltaState(t *testing.T) {
	h := newCMHarness(t, 2)
	h.run(t, func(ctx env.Ctx) {
		var committed []uint64
		for i := 0; i < 10; i++ {
			r, err := h.client.Start(ctx)
			if err != nil {
				t.Fatalf("start: %v", err)
			}
			h.client.Committed(ctx, r.TID)
			committed = append(committed, r.TID)
		}
		// A manager's fin/comm sets are soft state pushed to the store every
		// SyncInterval; taking cm0 down immediately would legitimately lose
		// the final interval. Let it push, then let cm1 pull.
		ctx.Sleep(10 * time.Millisecond)
		h.net.SetDown("cm0", true)
		ctx.Sleep(10 * time.Millisecond)
		for i := 0; i < 10; i++ {
			r, err := h.client.Start(ctx)
			if err != nil {
				t.Fatalf("start after fail-over: %v", err)
			}
			// The snapshot from the surviving manager must be coherent:
			// after the sync interval it contains every commit this client
			// performed before the fail-over.
			if i > 0 {
				for _, tid := range committed {
					if !r.Snap.Contains(tid) {
						t.Fatalf("post-fail-over snapshot lost committed tid %d", tid)
					}
				}
			}
			if err := h.client.Committed(ctx, r.TID); err != nil {
				t.Fatalf("commit after fail-over: %v", err)
			}
			committed = append(committed, r.TID)
			ctx.Sleep(2 * time.Millisecond) // let cm1's pull sync absorb cm0's state
		}
	})
}

// cmCounters fetches the delta/full response counters from a manager's
// stats endpoint.
func cmCounters(t *testing.T, ctx env.Ctx, h *cmHarness, addr string) (deltas, fulls int64) {
	t.Helper()
	for _, s := range cmStats(t, ctx, h, addr).Series {
		switch s.Metric {
		case "cm/deltas":
			deltas = s.Total
		case "cm/fulls":
			fulls = s.Total
		}
	}
	return deltas, fulls
}
