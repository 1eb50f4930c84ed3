package tpcc

import (
	"fmt"
	"sort"

	"tell/internal/core"
	"tell/internal/env"
	"tell/internal/relational"
)

// TellEngine runs TPC-C against one Tell processing node. Terminals homed
// on the same PN share it; calls are executed on the PN's synchronous
// worker pool (§6.1), so the PN's worker count caps its concurrency.
type TellEngine struct {
	pn     *core.PN
	tables map[string]*core.TableInfo
}

// NewTellEngine opens the TPC-C tables on the given PN. The dataset must
// already be loaded (Load).
func NewTellEngine(ctx env.Ctx, pn *core.PN) (*TellEngine, error) {
	e := &TellEngine{pn: pn, tables: make(map[string]*core.TableInfo)}
	for _, s := range Schemas() {
		t, err := pn.Catalog().OpenTable(ctx, s.Name)
		if err != nil {
			return nil, err
		}
		e.tables[s.Name] = t
	}
	return e, nil
}

// run executes fn as one transaction on a PN worker, translating conflicts
// into committed=false.
func (e *TellEngine) run(ctx env.Ctx, fn func(wctx env.Ctx, txn *core.Txn) error) (bool, error) {
	var committed bool
	var outErr error
	e.pn.Execute(ctx, func(wctx env.Ctx) {
		txn, err := e.pn.Begin(wctx)
		if err != nil {
			outErr = err
			return
		}
		if err := fn(wctx, txn); err != nil {
			if txn.State() == core.StateRunning {
				txn.Abort(wctx)
			}
			if err == core.ErrConflict || err == core.ErrDuplicateKey || err == errUserAbort {
				return // aborted, not an infrastructure failure
			}
			outErr = err
			return
		}
		switch err := txn.Commit(wctx); err {
		case nil:
			committed = true
		case core.ErrConflict, core.ErrDuplicateKey:
		default:
			outErr = err
		}
	})
	return committed, outErr
}

// errUserAbort marks intentional rollbacks (the 1% invalid-item new-orders).
var errUserAbort = fmt.Errorf("tpcc: intentional rollback")

func i64v(v int) relational.Value { return relational.I64(int64(v)) }

// NewOrder implements the new-order transaction (clause 2.4).
func (e *TellEngine) NewOrder(ctx env.Ctx, in *NewOrderInput) (bool, error) {
	wt, dt := e.tables[TWarehouse], e.tables[TDistrict]
	ct, it, st := e.tables[TCustomer], e.tables[TItem], e.tables[TStock]
	ot, not, olt := e.tables[TOrders], e.tables[TNewOrder], e.tables[TOrderLine]
	return e.run(ctx, func(wctx env.Ctx, txn *core.Txn) error {
		wctx.Work(e.pn.Costs().Logic)
		// One read round (§5.1): the warehouse, district and customer rows
		// and every item and stock row travel together.
		reads := make([]core.Read, 3+2*len(in.Items))
		w, d, c := &reads[0], &reads[1], &reads[2]
		*w = core.PKRead(wt, i64v(in.W))
		*d = core.PKRead(dt, i64v(in.W), i64v(in.D))
		*c = core.PKRead(ct, i64v(in.W), i64v(in.D), i64v(in.C))
		items, stocks := reads[3:3+len(in.Items)], reads[3+len(in.Items):]
		for n, item := range in.Items {
			items[n] = core.PKRead(it, i64v(item.ItemID))
			stocks[n] = core.PKRead(st, i64v(item.SupplyW), i64v(item.ItemID))
		}
		if err := txn.ReadRound(wctx, reads); err != nil {
			return err
		}
		_, wRow, found := w.Row()
		if !found {
			return orNotFound(nil, "warehouse")
		}
		wTax := wRow[WTax].F
		dRid, dRow, found := d.Row()
		if !found {
			return orNotFound(nil, "district")
		}
		dTax := dRow[DTax].F
		oID := dRow[DNextOID].I
		dNew := cloneRow(dRow)
		dNew[DNextOID] = relational.I64(oID + 1)
		if _, err := txn.Update(wctx, dt, dRid, dNew); err != nil {
			return err
		}
		_, cRow, found := c.Row()
		if !found {
			return orNotFound(nil, "customer")
		}
		discount := cRow[CDiscount].F

		allLocal := int64(1)
		if in.Remote {
			allLocal = 0
		}
		if _, err := txn.Insert(wctx, ot, relational.Row{
			i64v(in.W), i64v(in.D), relational.I64(oID), i64v(in.C),
			relational.I64(int64(wctx.Now())), relational.I64(0),
			relational.I64(int64(len(in.Items))), relational.I64(allLocal),
		}); err != nil {
			return err
		}
		if _, err := txn.Insert(wctx, not, relational.Row{
			i64v(in.W), i64v(in.D), relational.I64(oID),
		}); err != nil {
			return err
		}
		total := 0.0
		for n, item := range in.Items {
			if in.InvalidItem && n == len(in.Items)-1 {
				// Clause 2.4.2.3: unused item id → the whole
				// transaction rolls back.
				return errUserAbort
			}
			_, iRow, found := items[n].Row()
			if !found {
				return errUserAbort
			}
			price := iRow[IPrice].F
			sRid, sRow, found := stocks[n].Row()
			if !found {
				return orNotFound(nil, "stock")
			}
			sNew := cloneRow(sRow)
			qty := sRow[SQuantity].I
			if qty >= int64(item.Quantity)+10 {
				qty -= int64(item.Quantity)
			} else {
				qty = qty - int64(item.Quantity) + 91
			}
			sNew[SQuantity] = relational.I64(qty)
			sNew[SYtd] = relational.I64(sRow[SYtd].I + int64(item.Quantity))
			sNew[SOrderCnt] = relational.I64(sRow[SOrderCnt].I + 1)
			if item.SupplyW != in.W {
				sNew[SRemoteCnt] = relational.I64(sRow[SRemoteCnt].I + 1)
			}
			if _, err := txn.Update(wctx, st, sRid, sNew); err != nil {
				return err
			}
			amount := float64(item.Quantity) * price * (1 + wTax + dTax) * (1 - discount)
			total += amount
			if _, err := txn.Insert(wctx, olt, relational.Row{
				i64v(in.W), i64v(in.D), relational.I64(oID), relational.I64(int64(n + 1)),
				i64v(item.ItemID), i64v(item.SupplyW), relational.I64(0),
				relational.I64(int64(item.Quantity)), relational.F64(amount),
			}); err != nil {
				return err
			}
		}
		_ = total
		return nil
	})
}

// Payment implements the payment transaction (clause 2.5).
func (e *TellEngine) Payment(ctx env.Ctx, in *PaymentInput) (bool, error) {
	wt, dt, ct, ht := e.tables[TWarehouse], e.tables[TDistrict], e.tables[TCustomer], e.tables[THistory]
	return e.run(ctx, func(wctx env.Ctx, txn *core.Txn) error {
		wctx.Work(e.pn.Costs().Logic)
		// One read round: warehouse, district and the customer, by id or
		// through the last-name index.
		reads := []core.Read{
			core.PKRead(wt, i64v(in.W)),
			core.PKRead(dt, i64v(in.W), i64v(in.D)),
			customerRead(ct, in.CW, in.CD, in.ByLastName, in.CLast, in.C),
		}
		if err := txn.ReadRound(wctx, reads); err != nil {
			return err
		}
		wRid, wRow, found := reads[0].Row()
		if !found {
			return orNotFound(nil, "warehouse")
		}
		wNew := cloneRow(wRow)
		wNew[WYtd] = relational.F64(wRow[WYtd].F + in.Amount)
		if _, err := txn.Update(wctx, wt, wRid, wNew); err != nil {
			return err
		}
		dRid, dRow, found := reads[1].Row()
		if !found {
			return orNotFound(nil, "district")
		}
		dNew := cloneRow(dRow)
		dNew[DYtd] = relational.F64(dRow[DYtd].F + in.Amount)
		if _, err := txn.Update(wctx, dt, dRid, dNew); err != nil {
			return err
		}
		cRid, cRow, err := pickCustomer(&reads[2], in.ByLastName)
		if err != nil {
			return err
		}
		cNew := cloneRow(cRow)
		cNew[CBalance] = relational.F64(cRow[CBalance].F - in.Amount)
		cNew[CYtdPayment] = relational.F64(cRow[CYtdPayment].F + in.Amount)
		cNew[CPaymentCnt] = relational.I64(cRow[CPaymentCnt].I + 1)
		if cRow[CCredit].S == "BC" {
			// Bad credit: prepend payment info to c_data (truncated).
			data := fmt.Sprintf("%d,%d,%d,%d,%.2f|%s",
				cRow[CID].I, cRow[CDID].I, cRow[CWID].I, in.D, in.Amount, cRow[CData].S)
			if len(data) > 120 {
				data = data[:120]
			}
			cNew[CData] = relational.Str(data)
		}
		if _, err := txn.Update(wctx, ct, cRid, cNew); err != nil {
			return err
		}
		// History row; h_seq comes from the transaction id, which is
		// unique system-wide.
		_, err = txn.Insert(wctx, ht, relational.Row{
			i64v(in.W), i64v(in.D), relational.I64(int64(txn.TID())),
			relational.I64(cRow[CID].I), relational.I64(cRow[CWID].I), relational.I64(cRow[CDID].I),
			relational.I64(int64(wctx.Now())), relational.F64(in.Amount),
		})
		return err
	})
}

// customerRead reads a customer by id or by last name (clause 2.5.2.2).
func customerRead(ct *core.TableInfo, w, d int, byLast bool, last string, c int) core.Read {
	if byLast {
		return core.IndexPrefixRead(ct, IdxCustomerByLast, []relational.Value{i64v(w), i64v(d), relational.Str(last)})
	}
	return core.PKRead(ct, i64v(w), i64v(d), i64v(c))
}

// pickCustomer selects the customer of a customerRead: by last name, the
// middle row ordered by c_first (clause 2.5.2.2).
func pickCustomer(r *core.Read, byLast bool) (uint64, relational.Row, error) {
	if !byLast {
		rid, row, found := r.Row()
		if !found {
			return 0, nil, orNotFound(nil, "customer")
		}
		return rid, row, nil
	}
	matches := r.Rows()
	if len(matches) == 0 {
		return 0, nil, errUserAbort
	}
	sort.Slice(matches, func(i, j int) bool {
		return matches[i].Row[CFirst].S < matches[j].Row[CFirst].S
	})
	m := matches[len(matches)/2]
	return m.Rid, m.Row, nil
}

// OrderStatus implements the order-status transaction (clause 2.6).
func (e *TellEngine) OrderStatus(ctx env.Ctx, in *OrderStatusInput) (bool, error) {
	ct, ot, olt := e.tables[TCustomer], e.tables[TOrders], e.tables[TOrderLine]
	return e.run(ctx, func(wctx env.Ctx, txn *core.Txn) error {
		wctx.Work(e.pn.Costs().Logic)
		reads := []core.Read{customerRead(ct, in.W, in.D, in.ByLastName, in.CLast, in.C)}
		if err := txn.ReadRound(wctx, reads); err != nil {
			return err
		}
		_, cRow, err := pickCustomer(&reads[0], in.ByLastName)
		if err != nil {
			return err
		}
		cID := cRow[CID].I
		// Most recent order of the customer via the (w, d, c, o) index.
		var lastOrder relational.Row
		err = txn.ScanIndexPrefix(wctx, ot, IdxOrdersByCust,
			[]relational.Value{i64v(in.W), i64v(in.D), relational.I64(cID)},
			func(en core.IndexEntry) bool {
				lastOrder = en.Row // ascending o_id: the last one wins
				return true
			})
		if err != nil {
			return err
		}
		if lastOrder == nil {
			return nil // customer without orders: legal, empty status
		}
		oID := lastOrder[OID].I
		// Read the order lines.
		n := 0
		err = txn.ScanPK(wctx, olt,
			[]relational.Value{i64v(in.W), i64v(in.D), relational.I64(oID)},
			[]relational.Value{i64v(in.W), i64v(in.D), relational.I64(oID + 1)},
			func(en core.IndexEntry) bool {
				n++
				return true
			})
		return err
	})
}

// Delivery implements the delivery transaction (clause 2.7): for each of
// the ten districts, the oldest undelivered order is delivered. The
// districts advance together in three read rounds (§5.1) — the oldest
// new-orders, then the orders with their order-lines, then the customers;
// writes stay buffered until commit and every read sees the same snapshot,
// so the outcome is that of delivering the districts one after another.
func (e *TellEngine) Delivery(ctx env.Ctx, in *DeliveryInput) (bool, error) {
	not, ot, olt, ct := e.tables[TNewOrder], e.tables[TOrders], e.tables[TOrderLine], e.tables[TCustomer]
	return e.run(ctx, func(wctx env.Ctx, txn *core.Txn) error {
		wctx.Work(e.pn.Costs().Logic)
		// The oldest new-order of each district (ORDER BY no_o_id LIMIT 1),
		// consumed. Districts without one are skipped.
		firsts := make([]core.Read, DistrictsPerWarehouse)
		for d := 1; d <= DistrictsPerWarehouse; d++ {
			firsts[d-1] = core.FirstRead(not,
				[]relational.Value{i64v(in.W), i64v(d)},
				[]relational.Value{i64v(in.W), i64v(d + 1)})
		}
		if err := txn.ReadRound(wctx, firsts); err != nil {
			return err
		}
		var ds []int
		var orders []core.Read // per delivered district: its order, then its order-lines
		for d := 1; d <= DistrictsPerWarehouse; d++ {
			noRid, noRow, found := firsts[d-1].Row()
			if !found {
				continue
			}
			if _, err := txn.Delete(wctx, not, noRid); err != nil {
				return err
			}
			ds = append(ds, d)
			oID := noRow[NOOID].I
			orders = append(orders,
				core.PKRead(ot, i64v(in.W), i64v(d), relational.I64(oID)),
				core.RangeRead(olt,
					[]relational.Value{i64v(in.W), i64v(d), relational.I64(oID)},
					[]relational.Value{i64v(in.W), i64v(d), relational.I64(oID + 1)}))
		}
		if err := txn.ReadRound(wctx, orders); err != nil {
			return err
		}
		totals := make([]float64, len(ds))
		custs := make([]core.Read, len(ds))
		for i, d := range ds {
			oRid, oRow, found := orders[2*i].Row()
			if !found {
				return orNotFound(nil, "order")
			}
			oNew := cloneRow(oRow)
			oNew[OCarrierID] = relational.I64(int64(in.Carrier))
			if _, err := txn.Update(wctx, ot, oRid, oNew); err != nil {
				return err
			}
			for _, ol := range orders[2*i+1].Rows() {
				totals[i] += ol.Row[OLAmount].F
				nr := cloneRow(ol.Row)
				nr[OLDeliveryD] = relational.I64(int64(wctx.Now()) | 1)
				if _, err := txn.Update(wctx, olt, ol.Rid, nr); err != nil {
					return err
				}
			}
			custs[i] = core.PKRead(ct, i64v(in.W), i64v(d), oRow[OCID])
		}
		if err := txn.ReadRound(wctx, custs); err != nil {
			return err
		}
		for i := range custs {
			cRid, cRow, found := custs[i].Row()
			if !found {
				return orNotFound(nil, "customer")
			}
			cNew := cloneRow(cRow)
			cNew[CBalance] = relational.F64(cRow[CBalance].F + totals[i])
			cNew[CDeliveryCnt] = relational.I64(cRow[CDeliveryCnt].I + 1)
			if _, err := txn.Update(wctx, ct, cRid, cNew); err != nil {
				return err
			}
		}
		return nil
	})
}

// StockLevel implements the stock-level transaction (clause 2.8): count
// distinct items of the district's last 20 orders whose stock is below the
// threshold.
func (e *TellEngine) StockLevel(ctx env.Ctx, in *StockLevelInput) (bool, error) {
	dt, olt, st := e.tables[TDistrict], e.tables[TOrderLine], e.tables[TStock]
	return e.run(ctx, func(wctx env.Ctx, txn *core.Txn) error {
		wctx.Work(e.pn.Costs().Logic)
		_, dRow, found, err := txn.LookupPK(wctx, dt, i64v(in.W), i64v(in.D))
		if err != nil || !found {
			return orNotFound(err, "district")
		}
		next := dRow[DNextOID].I
		lo := next - 20
		if lo < 1 {
			lo = 1
		}
		seen := make(map[int64]bool)
		var items []int64
		err = txn.ScanPK(wctx, olt,
			[]relational.Value{i64v(in.W), i64v(in.D), relational.I64(lo)},
			[]relational.Value{i64v(in.W), i64v(in.D), relational.I64(next)},
			func(en core.IndexEntry) bool {
				id := en.Row[OLIID].I
				if !seen[id] {
					seen[id] = true
					items = append(items, id)
				}
				return true
			})
		if err != nil {
			return err
		}
		stockKeys := make([][]relational.Value, len(items))
		for i, item := range items {
			stockKeys[i] = []relational.Value{i64v(in.W), relational.I64(item)}
		}
		_, stockRows, err := txn.ReadMany(wctx, st, stockKeys)
		if err != nil {
			return err
		}
		low := 0
		for _, sRow := range stockRows {
			if sRow != nil && sRow[SQuantity].I < int64(in.Threshold) {
				low++
			}
		}
		return nil
	})
}

// cloneRow copies a row before mutation.
func cloneRow(r relational.Row) relational.Row {
	return append(relational.Row(nil), r...)
}

// orNotFound turns a missing required row into an error, passing real
// errors through.
func orNotFound(err error, what string) error {
	if err != nil {
		return err
	}
	return fmt.Errorf("tpcc: required %s row missing", what)
}
