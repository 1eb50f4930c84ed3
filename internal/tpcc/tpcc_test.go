package tpcc_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"tell/internal/core"
	"tell/internal/deploy"
	"tell/internal/env"
	"tell/internal/relational"
	"tell/internal/store"
	"tell/internal/testutil"
	"tell/internal/tpcc"
	"tell/internal/transport"
)

// rig is a full Tell stack with a loaded TPC-C dataset.
type rig struct {
	*deploy.Sim
	loaded *tpcc.Loaded
	cfg    tpcc.Config
}

func newRig(t *testing.T, nPNs int, cfg tpcc.Config) *rig {
	t.Helper()
	return newRigPN(t, nPNs, cfg, core.Config{Workers: 8})
}

// newRigPN is newRig with an explicit PN configuration.
func newRigPN(t *testing.T, nPNs int, cfg tpcc.Config, pn core.Config) *rig {
	t.Helper()
	s := deploy.NewSim(testutil.Seed(t, 77), transport.InfiniBand())
	err := s.Build(deploy.Spec{
		Storage: store.ClusterConfig{NumNodes: 2},
		CMs:     1,
		PNs:     nPNs,
		PN:      pn,
	})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := tpcc.Load(s.Storage, cfg)
	if err == nil {
		err = s.Start()
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, pn := range s.PNs {
		pn.StartWorkers()
	}
	return &rig{Sim: s, loaded: loaded, cfg: loaded.Config}
}

func (r *rig) run(t *testing.T, fn func(ctx env.Ctx)) {
	t.Helper()
	if err := r.Run(30000*time.Second, fn); err != nil {
		t.Fatal(err)
	}
}

func smallCfg() tpcc.Config {
	return tpcc.Config{Warehouses: 2, Scale: 0.02, Seed: 7} // 2000 items, 60 cust/district
}

func TestLoadShapes(t *testing.T) {
	cfg := smallCfg()
	r := newRig(t, 1, cfg)
	if r.loaded.Rows == 0 {
		t.Fatal("nothing loaded")
	}
	r.run(t, func(ctx env.Ctx) {
		pn := r.PNs[0]
		eng, err := tpcc.NewTellEngine(ctx, pn)
		if err != nil {
			t.Fatal(err)
		}
		_ = eng
		// Verify district rows exist with the right next_o_id.
		dist, _ := pn.Catalog().OpenTable(ctx, tpcc.TDistrict)
		txn, _ := pn.Begin(ctx)
		nOrd := cfg.OrdersPerDistrict()
		for w := 1; w <= cfg.Warehouses; w++ {
			for d := 1; d <= tpcc.DistrictsPerWarehouse; d++ {
				_, row, found, err := txn.LookupPK(ctx, dist,
					relational.I64(int64(w)), relational.I64(int64(d)))
				if err != nil || !found {
					t.Fatalf("district %d/%d: %v %v", w, d, found, err)
				}
				if row[tpcc.DNextOID].I != int64(nOrd+1) {
					t.Fatalf("district %d/%d next_o_id = %d, want %d",
						w, d, row[tpcc.DNextOID].I, nOrd+1)
				}
			}
		}
		// Count customers of one district via the PK index.
		cust, _ := pn.Catalog().OpenTable(ctx, tpcc.TCustomer)
		n := 0
		txn.ScanPK(ctx, cust,
			[]relational.Value{relational.I64(1), relational.I64(1)},
			[]relational.Value{relational.I64(1), relational.I64(2)},
			func(e core.IndexEntry) bool { n++; return true })
		if n != cfg.CustomersPerDistrict() {
			t.Fatalf("district has %d customers, want %d", n, cfg.CustomersPerDistrict())
		}
		txn.Commit(ctx)
	})
}

func TestNewOrderAdvancesDistrictAndCreatesRows(t *testing.T) {
	cfg := smallCfg()
	r := newRig(t, 1, cfg)
	r.run(t, func(ctx env.Ctx) {
		pn := r.PNs[0]
		eng, _ := tpcc.NewTellEngine(ctx, pn)
		in := &tpcc.NewOrderInput{
			W: 1, D: 1, C: 1,
			Items: []tpcc.OrderItem{{ItemID: 1, SupplyW: 1, Quantity: 3}, {ItemID: 2, SupplyW: 1, Quantity: 1}},
		}
		ok, err := eng.NewOrder(ctx, in)
		if err != nil || !ok {
			t.Fatalf("neworder: %v %v", ok, err)
		}
		// The district sequence advanced and the order rows exist.
		dist, _ := pn.Catalog().OpenTable(ctx, tpcc.TDistrict)
		ords, _ := pn.Catalog().OpenTable(ctx, tpcc.TOrders)
		ol, _ := pn.Catalog().OpenTable(ctx, tpcc.TOrderLine)
		txn, _ := pn.Begin(ctx)
		_, dRow, _, _ := txn.LookupPK(ctx, dist, relational.I64(1), relational.I64(1))
		oID := dRow[tpcc.DNextOID].I - 1
		if oID != int64(cfg.OrdersPerDistrict()+1) {
			t.Fatalf("new order id = %d", oID)
		}
		_, oRow, found, _ := txn.LookupPK(ctx, ords, relational.I64(1), relational.I64(1), relational.I64(oID))
		if !found || oRow[tpcc.OOlCnt].I != 2 {
			t.Fatalf("order row: %v %v", oRow, found)
		}
		lines := 0
		txn.ScanPK(ctx, ol,
			[]relational.Value{relational.I64(1), relational.I64(1), relational.I64(oID)},
			[]relational.Value{relational.I64(1), relational.I64(1), relational.I64(oID + 1)},
			func(e core.IndexEntry) bool { lines++; return true })
		if lines != 2 {
			t.Fatalf("order lines = %d", lines)
		}
		txn.Commit(ctx)
	})
}

func TestInvalidItemRollsBack(t *testing.T) {
	cfg := smallCfg()
	r := newRig(t, 1, cfg)
	r.run(t, func(ctx env.Ctx) {
		pn := r.PNs[0]
		eng, _ := tpcc.NewTellEngine(ctx, pn)
		in := &tpcc.NewOrderInput{
			W: 1, D: 2, C: 1, InvalidItem: true,
			Items: []tpcc.OrderItem{{ItemID: 1, SupplyW: 1, Quantity: 1}, {ItemID: 2, SupplyW: 1, Quantity: 1}},
		}
		ok, err := eng.NewOrder(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatal("invalid-item order committed")
		}
		// Nothing changed: district sequence intact.
		dist, _ := pn.Catalog().OpenTable(ctx, tpcc.TDistrict)
		txn, _ := pn.Begin(ctx)
		_, dRow, _, _ := txn.LookupPK(ctx, dist, relational.I64(1), relational.I64(2))
		if dRow[tpcc.DNextOID].I != int64(cfg.OrdersPerDistrict()+1) {
			t.Fatalf("district sequence leaked: %d", dRow[tpcc.DNextOID].I)
		}
		txn.Commit(ctx)
	})
}

func TestPaymentByLastName(t *testing.T) {
	cfg := smallCfg()
	r := newRig(t, 1, cfg)
	r.run(t, func(ctx env.Ctx) {
		eng, _ := tpcc.NewTellEngine(ctx, r.PNs[0])
		in := &tpcc.PaymentInput{
			W: 1, D: 1, CW: 1, CD: 1,
			ByLastName: true, CLast: tpcc.LastName(0), // "BARBARBAR", loaded for c_id 1
			Amount: 42.5,
		}
		ok, err := eng.Payment(ctx, in)
		if err != nil || !ok {
			t.Fatalf("payment: %v %v", ok, err)
		}
		// Warehouse ytd moved.
		wt, _ := r.PNs[0].Catalog().OpenTable(ctx, tpcc.TWarehouse)
		txn, _ := r.PNs[0].Begin(ctx)
		_, wRow, _, _ := txn.LookupPK(ctx, wt, relational.I64(1))
		if wRow[tpcc.WYtd].F != 300042.5 {
			t.Fatalf("w_ytd = %v", wRow[tpcc.WYtd].F)
		}
		txn.Commit(ctx)
	})
}

// TestDeliveryConsumesOldestNewOrders runs two deliveries on one warehouse:
// each consumes the oldest new-order of every district and stamps that order
// with its carrier.
func TestDeliveryConsumesOldestNewOrders(t *testing.T) {
	cfg := smallCfg()
	r := newRig(t, 1, cfg)
	r.run(t, func(ctx env.Ctx) {
		pn := r.PNs[0]
		eng, _ := tpcc.NewTellEngine(ctx, pn)
		not, _ := pn.Catalog().OpenTable(ctx, tpcc.TNewOrder)
		ords, _ := pn.Catalog().OpenTable(ctx, tpcc.TOrders)
		// undelivered returns each district's new-order ids, ascending.
		undelivered := func() [][]int64 {
			txn, _ := pn.Begin(ctx)
			defer txn.Commit(ctx)
			ids := make([][]int64, tpcc.DistrictsPerWarehouse+1)
			for d := 1; d <= tpcc.DistrictsPerWarehouse; d++ {
				txn.ScanPK(ctx, not,
					[]relational.Value{relational.I64(1), relational.I64(int64(d))},
					[]relational.Value{relational.I64(1), relational.I64(int64(d + 1))},
					func(e core.IndexEntry) bool { ids[d] = append(ids[d], e.Row[tpcc.NOOID].I); return true })
			}
			return ids
		}
		carrier := func(d int, o int64) int64 {
			txn, _ := pn.Begin(ctx)
			defer txn.Commit(ctx)
			_, row, found, err := txn.LookupPK(ctx, ords, relational.I64(1), relational.I64(int64(d)), relational.I64(o))
			if err != nil || !found {
				t.Fatalf("order 1/%d/%d: %v %v", d, o, found, err)
			}
			return row[tpcc.OCarrierID].I
		}
		before := undelivered()
		for round, c := range []int{3, 7} {
			ok, err := eng.Delivery(ctx, &tpcc.DeliveryInput{W: 1, Carrier: c})
			if err != nil || !ok {
				t.Fatalf("delivery %d: %v %v", round, ok, err)
			}
			after := undelivered()
			for d := 1; d <= tpcc.DistrictsPerWarehouse; d++ {
				want := before[d][round+1:]
				if !slices.Equal(after[d], want) {
					t.Fatalf("delivery %d, district %d: new-orders %v, want %v", round, d, after[d], want)
				}
				if got := carrier(d, before[d][round]); got != int64(c) {
					t.Fatalf("delivery %d, district %d: order %d carrier %d, want %d", round, d, before[d][round], got, c)
				}
			}
		}
	})
}

func TestOrderStatusAndStockLevel(t *testing.T) {
	cfg := smallCfg()
	r := newRig(t, 1, cfg)
	r.run(t, func(ctx env.Ctx) {
		eng, _ := tpcc.NewTellEngine(ctx, r.PNs[0])
		ok, err := eng.OrderStatus(ctx, &tpcc.OrderStatusInput{W: 1, D: 1, C: 5})
		if err != nil || !ok {
			t.Fatalf("orderstatus: %v %v", ok, err)
		}
		ok, err = eng.StockLevel(ctx, &tpcc.StockLevelInput{W: 1, D: 1, Threshold: 15})
		if err != nil || !ok {
			t.Fatalf("stocklevel: %v %v", ok, err)
		}
	})
}

// TestStandardMixEndToEnd drives the full benchmark and then checks TPC-C
// consistency conditions.
func TestStandardMixEndToEnd(t *testing.T) {
	// 8 warehouses for 16 terminals: ~0.2 concurrent transactions per
	// district, a deliberately contended configuration (§6.3.1 shows
	// contention raises aborts; the paper ran 200 warehouses).
	cfg := tpcc.Config{Warehouses: 8, Scale: 0.02, Seed: 7}
	r := newRig(t, 2, cfg)
	r.run(t, func(ctx env.Ctx) {
		var engines []tpcc.Engine
		for _, pn := range r.PNs {
			eng, err := tpcc.NewTellEngine(ctx, pn)
			if err != nil {
				t.Fatal(err)
			}
			engines = append(engines, eng)
		}
		drv := tpcc.NewDriver(cfg, tpcc.StandardMix(), engines, 16, 5)
		res := drv.Run(ctx, r.Env, r.Driver, 20, 300)
		if res.TotalCommitted() == 0 {
			t.Fatal("nothing committed")
		}
		if res.Committed[tpcc.TxNewOrder] == 0 {
			t.Fatal("no new-orders committed")
		}
		if res.TpmC() <= 0 {
			t.Fatalf("TpmC = %v", res.TpmC())
		}
		if res.AbortRate() > 0.5 {
			t.Fatalf("abort rate %.2f implausibly high", res.AbortRate())
		}
		t.Logf("result: %v", res)

		// TPC-C consistency condition 1&3 (clause 3.3.2): for every
		// district, d_next_o_id - 1 equals the max o_id and max no_o_id.
		pn := r.PNs[0]
		dist, _ := pn.Catalog().OpenTable(ctx, tpcc.TDistrict)
		ords, _ := pn.Catalog().OpenTable(ctx, tpcc.TOrders)
		txn, _ := pn.Begin(ctx)
		for w := 1; w <= cfg.Warehouses; w++ {
			for d := 1; d <= tpcc.DistrictsPerWarehouse; d++ {
				_, dRow, _, _ := txn.LookupPK(ctx, dist, relational.I64(int64(w)), relational.I64(int64(d)))
				var maxO int64
				txn.ScanPK(ctx, ords,
					[]relational.Value{relational.I64(int64(w)), relational.I64(int64(d))},
					[]relational.Value{relational.I64(int64(w)), relational.I64(int64(d + 1))},
					func(e core.IndexEntry) bool {
						if e.Row[tpcc.OID].I > maxO {
							maxO = e.Row[tpcc.OID].I
						}
						return true
					})
				if dRow[tpcc.DNextOID].I != maxO+1 {
					t.Fatalf("w%d d%d: next_o_id=%d max(o_id)=%d",
						w, d, dRow[tpcc.DNextOID].I, maxO)
				}
			}
		}
		txn.Commit(ctx)
		if res.Committed[tpcc.TxDelivery] == 0 {
			t.Fatal("no deliveries committed")
		}
		checkDeliveryConsistency(t, ctx, pn)
	})
}

// checkDeliveryConsistency checks the clause 3.3.2 conditions that
// deliveries maintain, over one snapshot of the whole database:
//
//	2: each district's new-order ids are contiguous;
//	5: an order's carrier is set iff it has no new-order row;
//	7: an order line's delivery date is set iff its order's carrier is;
//	10: c_balance = sum(delivered ol_amount) - sum(h_amount) per customer.
func checkDeliveryConsistency(t *testing.T, ctx env.Ctx, pn *core.PN) {
	t.Helper()
	type district struct{ w, d int64 }
	type order struct {
		district
		o int64
	}
	type customer struct {
		district
		c int64
	}
	tables := map[string]*core.TableInfo{}
	for _, name := range []string{tpcc.TNewOrder, tpcc.TOrders, tpcc.TOrderLine, tpcc.TCustomer, tpcc.THistory} {
		tables[name], _ = pn.Catalog().OpenTable(ctx, name)
	}
	txn, _ := pn.Begin(ctx)
	defer txn.Commit(ctx)
	scan := func(name string, fn func(relational.Row)) {
		if err := txn.ScanTable(ctx, tables[name], func(_ uint64, row relational.Row) bool { fn(row); return true }); err != nil {
			t.Fatalf("scan %s: %v", name, err)
		}
	}

	newOrders := map[order]bool{}
	noCount := map[district]int64{}
	noMin, noMax := map[district]int64{}, map[district]int64{}
	scan(tpcc.TNewOrder, func(r relational.Row) {
		k := district{r[tpcc.NOWID].I, r[tpcc.NODID].I}
		o := r[tpcc.NOOID].I
		newOrders[order{k, o}] = true
		if noCount[k] == 0 || o < noMin[k] {
			noMin[k] = o
		}
		if noCount[k] == 0 || o > noMax[k] {
			noMax[k] = o
		}
		noCount[k]++
	})
	for k, n := range noCount {
		if noMax[k]-noMin[k]+1 != n {
			t.Fatalf("condition 2: w%d d%d holds %d new-orders over ids %d..%d", k.w, k.d, n, noMin[k], noMax[k])
		}
	}

	carrierSet := map[order]bool{}
	owner := map[order]customer{}
	scan(tpcc.TOrders, func(r relational.Row) {
		k := order{district{r[tpcc.OWID].I, r[tpcc.ODID].I}, r[tpcc.OID].I}
		carrierSet[k] = r[tpcc.OCarrierID].I != 0
		owner[k] = customer{k.district, r[tpcc.OCID].I}
		if carrierSet[k] == newOrders[k] {
			t.Fatalf("condition 5: order %v carrier set %v, new-order row %v", k, carrierSet[k], newOrders[k])
		}
	})

	balance := map[customer]float64{}
	scan(tpcc.TOrderLine, func(r relational.Row) {
		k := order{district{r[tpcc.OLWID].I, r[tpcc.OLDID].I}, r[tpcc.OLOID].I}
		delivered := r[tpcc.OLDeliveryD].I != 0
		if delivered != carrierSet[k] {
			t.Fatalf("condition 7: order %v line %d delivered %v, carrier set %v", k, r[tpcc.OLNumber].I, delivered, carrierSet[k])
		}
		if delivered {
			balance[owner[k]] += r[tpcc.OLAmount].F
		}
	})
	scan(tpcc.THistory, func(r relational.Row) {
		balance[customer{district{r[tpcc.HCWID].I, r[tpcc.HCDID].I}, r[tpcc.HCID].I}] -= r[tpcc.HAmount].F
	})
	scan(tpcc.TCustomer, func(r relational.Row) {
		k := customer{district{r[tpcc.CWID].I, r[tpcc.CDID].I}, r[tpcc.CID].I}
		if got, want := r[tpcc.CBalance].F, balance[k]; math.Abs(got-want) > 1e-6*math.Max(1, math.Abs(want)) {
			t.Fatalf("condition 10: customer %v balance %.2f, delivered amounts less payments %.2f", k, got, want)
		}
	})
}

func TestReadIntensiveMixMostlyReads(t *testing.T) {
	cfg := smallCfg()
	r := newRig(t, 1, cfg)
	r.run(t, func(ctx env.Ctx) {
		eng, _ := tpcc.NewTellEngine(ctx, r.PNs[0])
		drv := tpcc.NewDriver(cfg, tpcc.ReadIntensiveMix(), []tpcc.Engine{eng}, 8, 5)
		res := drv.Run(ctx, r.Env, r.Driver, 10, 200)
		if res.Tps() <= 0 {
			t.Fatalf("Tps = %v", res.Tps())
		}
		ro := res.Committed[tpcc.TxOrderStatus] + res.Committed[tpcc.TxStockLevel]
		if ro <= res.Committed[tpcc.TxNewOrder] {
			t.Fatalf("mix skew wrong: ro=%d neworder=%d", ro, res.Committed[tpcc.TxNewOrder])
		}
		// Read-heavy mixes should abort (almost) never.
		if res.AbortRate() > 0.05 {
			t.Fatalf("abort rate %.3f for read mix", res.AbortRate())
		}
	})
}

func TestShardableMixHasNoRemoteAccesses(t *testing.T) {
	cfg := smallCfg()
	rng := rand.New(rand.NewSource(3))
	gen := tpcc.NewInputGen(cfg, tpcc.ShardableMix(), 1, 1, rng)
	for i := 0; i < 3000; i++ {
		typ, input := gen.Next()
		switch typ {
		case tpcc.TxNewOrder:
			in := input.(*tpcc.NewOrderInput)
			if in.Remote {
				t.Fatal("shardable mix produced a remote new-order")
			}
			for _, it := range in.Items {
				if it.SupplyW != in.W {
					t.Fatal("remote supply warehouse in shardable mix")
				}
			}
		case tpcc.TxPayment:
			in := input.(*tpcc.PaymentInput)
			if in.Remote || in.CW != in.W {
				t.Fatal("remote payment in shardable mix")
			}
		}
	}
}

func TestStandardMixRemoteFractions(t *testing.T) {
	cfg := tpcc.Config{Warehouses: 10, Scale: 0.02, Seed: 9}
	rng := rand.New(rand.NewSource(4))
	gen := tpcc.NewInputGen(cfg, tpcc.StandardMix(), 3, 1, rng)
	newOrders, remoteNO := 0, 0
	payments, remotePay := 0, 0
	for i := 0; i < 30000; i++ {
		typ, input := gen.Next()
		switch typ {
		case tpcc.TxNewOrder:
			newOrders++
			if input.(*tpcc.NewOrderInput).Remote {
				remoteNO++
			}
		case tpcc.TxPayment:
			payments++
			if input.(*tpcc.PaymentInput).Remote {
				remotePay++
			}
		}
	}
	// ~10% of new-orders have a remote item (10 items × 1%); 15% of
	// payments are remote. Allow generous tolerance.
	noFrac := float64(remoteNO) / float64(newOrders)
	payFrac := float64(remotePay) / float64(payments)
	if noFrac < 0.05 || noFrac > 0.16 {
		t.Fatalf("remote new-order fraction %.3f", noFrac)
	}
	if payFrac < 0.10 || payFrac > 0.20 {
		t.Fatalf("remote payment fraction %.3f", payFrac)
	}
}

func TestNURandRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10000; i++ {
		if c := tpcc.NURandCustomerID(rng, 3000); c < 1 || c > 3000 {
			t.Fatalf("customer id %d out of range", c)
		}
		if c := tpcc.NURandCustomerID(rng, 60); c < 1 || c > 60 {
			t.Fatalf("scaled customer id %d out of range", c)
		}
		if it := tpcc.NURandItemID(rng, 100000); it < 1 || it > 100000 {
			t.Fatalf("item id %d out of range", it)
		}
		if it := tpcc.NURandItemID(rng, 2000); it < 1 || it > 2000 {
			t.Fatalf("scaled item id %d out of range", it)
		}
	}
	// Skew: NURand concentrates probability on ids whose low bits match
	// the OR pattern, so a sample has far fewer distinct values than a
	// uniform draw would (~18.1k distinct for 20k draws over 100k ids).
	distinct := make(map[int]bool)
	for i := 0; i < 20000; i++ {
		distinct[tpcc.NURandItemID(rng, 100000)] = true
	}
	if len(distinct) > 17000 {
		t.Fatalf("NURand looks uniform: %d distinct of 20000 draws", len(distinct))
	}
}

func TestLastName(t *testing.T) {
	if got := tpcc.LastName(0); got != "BARBARBAR" {
		t.Fatalf("LastName(0) = %q", got)
	}
	if got := tpcc.LastName(371); got != "PRICALLYOUGHT" {
		t.Fatalf("LastName(371) = %q", got)
	}
	if got := tpcc.LastName(999); got != "EINGEINGEING" {
		t.Fatalf("LastName(999) = %q", got)
	}
}
