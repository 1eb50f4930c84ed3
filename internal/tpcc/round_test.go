package tpcc_test

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"tell/internal/core"
	"tell/internal/env"
	"tell/internal/tpcc"
	"tell/internal/transport"
	"tell/internal/txlog"
	"tell/internal/wire"
)

// storeSend is one store request the PN sent: when, whether it carried a
// write, whether it wrote a transaction-log entry (the append or the commit
// flag), and whether it created a B+tree node (the right half of a split).
type storeSend struct {
	at                 time.Duration
	write, logw, split bool
}

// storeSends runs fn with every store request of the PN delayed by
// roundDelay and returns the requests it sent.
func (r *rig) storeSends(t *testing.T, fn func()) []storeSend {
	t.Helper()
	var sends []storeSend
	pn := r.PNNodes[0].Name()
	r.Net.SetFaultFn(func(src, dst string, payload []byte) transport.Fault {
		if src != pn || wire.PeekKind(payload) != wire.KindStoreReq {
			return transport.Fault{}
		}
		req, err := wire.DecodeStoreRequest(payload)
		if err != nil {
			t.Errorf("undecodable store request: %v", err)
			return transport.Fault{}
		}
		s := storeSend{at: r.Env.Now()}
		for _, op := range req.Ops {
			if op.Code != wire.OpGet {
				s.write = true
			}
			if _, ok := txlog.TIDFromKey(op.Key); ok && op.Code == wire.OpCondPut {
				s.logw = true
			}
			// A put that must create a B+tree node (idx/<tree>/n/<id>) is
			// a split's new right node.
			if op.Code == wire.OpCondPut && op.Stamp == 0 &&
				bytes.HasPrefix(op.Key, []byte("idx/")) && bytes.Contains(op.Key, []byte("/n/")) {
				s.split = true
			}
		}
		sends = append(sends, s)
		return transport.Fault{Delay: roundDelay}
	})
	fn()
	r.Net.SetFaultFn(nil)
	return sends
}

// roundDelay is what storeSends adds to every store request; requests sent
// less than half of it apart belong to one round trip.
const roundDelay = time.Millisecond

// rounds counts the round trips among sends.
func rounds(sends []storeSend) int {
	n := 0
	for i, s := range sends {
		if i == 0 || s.at-sends[i-1].at >= roundDelay/2 {
			n++
		}
	}
	return n
}

// readRounds runs fn and returns how many store round trips it made one
// after another before the round trip of its first write. Reads sent beside
// that write, in its round trip, are not read rounds.
func (r *rig) readRounds(t *testing.T, fn func()) int {
	t.Helper()
	sends := r.storeSends(t, fn)
	if i := slices.IndexFunc(sends, func(s storeSend) bool { return s.write }); i >= 0 {
		return rounds(sends[:i+1]) - 1
	}
	return rounds(sends)
}

// commitRounds runs fn and returns how many store round trips it made one
// after another from the round trip of its transaction-log append to that
// of its commit flag, the last log write, and whether a B+tree leaf split
// on the way; fn must end with the commit. Requests sent after the flag,
// a split's separator post among them, are not counted: the commit does not
// wait for them.
func (r *rig) commitRounds(t *testing.T, fn func()) (n int, split bool) {
	t.Helper()
	sends := r.storeSends(t, fn)
	i := slices.IndexFunc(sends, func(s storeSend) bool { return s.logw })
	j := len(sends) - 1
	for j > i && !sends[j].logw {
		j--
	}
	if i < 0 {
		t.Fatal("no transaction-log append")
	}
	for i > 0 && sends[i].at-sends[i-1].at < roundDelay/2 {
		i--
	}
	sends = sends[i : j+1]
	return rounds(sends), slices.ContainsFunc(sends, func(s storeSend) bool { return s.split })
}

// newCachingRig is a one-PN rig whose B+tree handles cache inner nodes
// (§5.3.1), as every benchmark deployment does: a warm walk then costs one
// store round trip, for its leaf.
func newCachingRig(t *testing.T) *rig {
	return newRigPN(t, 1, smallCfg(), core.Config{Workers: 8, CacheIndexInner: true})
}

// New-order reads its warehouse, district, customer, items and stocks in
// one read round: two store round trips, one for the B+tree walks and one
// for the records. One read after another would take one per table row.
func TestNewOrderReadsInTwoRoundTrips(t *testing.T) {
	r := newCachingRig(t)
	r.run(t, func(ctx env.Ctx) {
		eng, _ := tpcc.NewTellEngine(ctx, r.PNs[0])
		in := &tpcc.NewOrderInput{W: 1, D: 3, C: 7}
		for i := 1; i <= 10; i++ {
			in.Items = append(in.Items, tpcc.OrderItem{ItemID: 97 * i, SupplyW: 1 + i%2, Quantity: 2})
		}
		// The first run fills the inner-node caches on the way.
		for run := 0; run < 2; run++ {
			var ok bool
			var err error
			rounds := r.readRounds(t, func() { ok, err = eng.NewOrder(ctx, in) })
			if err != nil || !ok {
				t.Fatalf("new-order %d: %v %v", run, ok, err)
			}
			if run == 1 && rounds != 2 {
				t.Fatalf("new-order read in %d store round trips, want 2", rounds)
			}
		}
	})
}

// Delivery finds the ten districts' oldest new-orders in one read round, so
// its district walk takes a fixed number of store round trips, not two per
// district. The first delivery fills the inner-node caches and leaves a
// deleted entry at the head of every district; once the lav has passed
// them, the second delivery's walk collects those entries, and that GC is
// its first write. Before it come at most three round trips: the walks' leaf
// fetches, the next leaf of a range that runs past its first leaf, and the
// record fetch; the GC puts the leaves its walks read without descending to
// them again. One district after another would take two for each of the
// ten.
func TestDeliveryDistrictWalkRoundTrips(t *testing.T) {
	r := newCachingRig(t)
	r.run(t, func(ctx env.Ctx) {
		eng, _ := tpcc.NewTellEngine(ctx, r.PNs[0])
		if ok, err := eng.Delivery(ctx, &tpcc.DeliveryInput{W: 1, Carrier: 1}); err != nil || !ok {
			t.Fatalf("delivery: %v %v", ok, err)
		}
		ctx.Sleep(100 * time.Millisecond) // let the lav pass the first delivery
		var ok bool
		var err error
		rounds := r.readRounds(t, func() { ok, err = eng.Delivery(ctx, &tpcc.DeliveryInput{W: 1, Carrier: 2}) })
		if err != nil || !ok {
			t.Fatalf("delivery: %v %v", ok, err)
		}
		if rounds > 3 {
			t.Fatalf("delivery's district walk took %d store round trips, want at most 3", rounds)
		}
	})
}

// A write commit takes four dependent store round trips from the log append
// to the commit flag: the append, with the leaf reads of the index phase
// beside it; the apply; the index leaf puts; and the flag, one conditional
// put on the stamp the append returned. Delivery inserts no index entry, so
// it takes three. Reading the leaves after the apply and reading the entry
// back before flagging it would take two more. A leaf split adds one round
// trip, the new right node's put before the shrunk left leaf's: the
// separator goes to the parent level after the flag, off the commit's path,
// and the right node's id comes from a range reserved in the background,
// also on the handle's first split. A district's order-line leaf splits
// about every third new-order, so every run after the first, which fills
// the inner-node caches, is counted, the handle's first split among them.
func TestCommitRoundTrips(t *testing.T) {
	r := newCachingRig(t)
	r.run(t, func(ctx env.Ctx) {
		eng, _ := tpcc.NewTellEngine(ctx, r.PNs[0])
		no := &tpcc.NewOrderInput{W: 1, D: 3, C: 7}
		for i := 1; i <= 10; i++ {
			no.Items = append(no.Items, tpcc.OrderItem{ItemID: 97 * i, SupplyW: 1 + i%2, Quantity: 2})
		}
		carrier := 0
		for _, tc := range []struct {
			name   string
			want   int // without a split
			splits int // at least, over the counted runs
			run    func() (bool, error)
		}{
			{"new-order", 4, 2, func() (bool, error) { return eng.NewOrder(ctx, no) }},
			{"payment", 4, 0, func() (bool, error) {
				return eng.Payment(ctx, &tpcc.PaymentInput{W: 1, D: 2, C: 5, CW: 1, CD: 2, Amount: 10})
			}},
			{"delivery", 3, 0, func() (bool, error) {
				carrier++
				return eng.Delivery(ctx, &tpcc.DeliveryInput{W: 1, Carrier: carrier})
			}},
		} {
			largest := map[bool]int{}
			splits := 0
			for run := 0; run < 8; run++ {
				var ok bool
				var err error
				n, split := r.commitRounds(t, func() { ok, err = tc.run() })
				if err != nil || !ok {
					t.Fatalf("%s %d: %v %v", tc.name, run, ok, err)
				}
				if run > 0 {
					largest[split] = max(largest[split], n)
					if split {
						splits++
					}
				}
			}
			if largest[false] != tc.want {
				t.Errorf("%s committed in up to %d store round trips from the log append, want %d", tc.name, largest[false], tc.want)
			}
			if splits > 0 && largest[true] != tc.want+1 {
				t.Errorf("%s with a leaf split committed in up to %d store round trips from the log append, want %d", tc.name, largest[true], tc.want+1)
			}
			if splits < tc.splits {
				t.Errorf("%s split a leaf in %d of the counted runs, want at least %d", tc.name, splits, tc.splits)
			}
		}
	})
}
