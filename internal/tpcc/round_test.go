package tpcc_test

import (
	"testing"
	"time"

	"tell/internal/core"
	"tell/internal/env"
	"tell/internal/tpcc"
	"tell/internal/transport"
	"tell/internal/wire"
)

// readRounds runs fn with every store request delayed by a millisecond and
// returns how many store round trips fn made one after another before its
// first write: requests sent less than the delay apart belong to one round
// trip.
func (r *rig) readRounds(t *testing.T, fn func()) int {
	t.Helper()
	const delay = time.Millisecond
	var sends []time.Duration
	wrote, pn := false, r.PNs[0].ID()
	r.Net.SetFaultFn(func(src, dst string, payload []byte) transport.Fault {
		if wrote || src != pn || wire.PeekKind(payload) != wire.KindStoreReq {
			return transport.Fault{}
		}
		req, err := wire.DecodeStoreRequest(payload)
		if err != nil {
			t.Errorf("undecodable store request: %v", err)
			return transport.Fault{}
		}
		for _, op := range req.Ops {
			if op.Code != wire.OpGet {
				wrote = true
				return transport.Fault{}
			}
		}
		sends = append(sends, r.Env.Now())
		return transport.Fault{Delay: delay}
	})
	fn()
	r.Net.SetFaultFn(nil)
	rounds := 0
	for i, at := range sends {
		if i == 0 || at-sends[i-1] >= delay/2 {
			rounds++
		}
	}
	return rounds
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
// its first write. Before it come at most four round trips: the walks' leaf
// fetches, the next leaf of a range that runs past its first leaf, the
// record fetch, and the GC's descent to the leaves. One district after
// another would take two for each of the ten.
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
		if rounds > 4 {
			t.Fatalf("delivery's district walk took %d store round trips, want at most 4", rounds)
		}
	})
}
