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

// PN returns the underlying processing node.
func (e *TellEngine) PN() *core.PN { return e.pn }

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
		_, wRow, found, err := txn.LookupPK(wctx, wt, i64v(in.W))
		if err != nil || !found {
			return orNotFound(err, "warehouse")
		}
		wTax := wRow[WTax].F
		dRid, dRow, found, err := txn.LookupPK(wctx, dt, i64v(in.W), i64v(in.D))
		if err != nil || !found {
			return orNotFound(err, "district")
		}
		dTax := dRow[DTax].F
		oID := dRow[DNextOID].I
		dNew := cloneRow(dRow)
		dNew[DNextOID] = relational.I64(oID + 1)
		if _, err := txn.Update(wctx, dt, dRid, dNew); err != nil {
			return err
		}
		_, cRow, found, err := txn.LookupPK(wctx, ct, i64v(in.W), i64v(in.D), i64v(in.C))
		if err != nil || !found {
			return orNotFound(err, "customer")
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
		// Batched reads (§5.1): all item and stock rows travel in a
		// handful of requests instead of two round trips per line.
		itemKeys := make([][]relational.Value, len(in.Items))
		stockKeys := make([][]relational.Value, len(in.Items))
		for n, item := range in.Items {
			itemKeys[n] = []relational.Value{i64v(item.ItemID)}
			stockKeys[n] = []relational.Value{i64v(item.SupplyW), i64v(item.ItemID)}
		}
		_, itemRows, err := txn.ReadMany(wctx, it, itemKeys)
		if err != nil {
			return err
		}
		stockRids, stockRows, err := txn.ReadMany(wctx, st, stockKeys)
		if err != nil {
			return err
		}
		total := 0.0
		for n, item := range in.Items {
			if in.InvalidItem && n == len(in.Items)-1 {
				// Clause 2.4.2.3: unused item id → the whole
				// transaction rolls back.
				return errUserAbort
			}
			iRow := itemRows[n]
			if iRow == nil {
				return errUserAbort
			}
			price := iRow[IPrice].F
			sRid, sRow := stockRids[n], stockRows[n]
			if sRow == nil {
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
		wRid, wRow, found, err := txn.LookupPK(wctx, wt, i64v(in.W))
		if err != nil || !found {
			return orNotFound(err, "warehouse")
		}
		wNew := cloneRow(wRow)
		wNew[WYtd] = relational.F64(wRow[WYtd].F + in.Amount)
		if _, err := txn.Update(wctx, wt, wRid, wNew); err != nil {
			return err
		}
		dRid, dRow, found, err := txn.LookupPK(wctx, dt, i64v(in.W), i64v(in.D))
		if err != nil || !found {
			return orNotFound(err, "district")
		}
		dNew := cloneRow(dRow)
		dNew[DYtd] = relational.F64(dRow[DYtd].F + in.Amount)
		if _, err := txn.Update(wctx, dt, dRid, dNew); err != nil {
			return err
		}
		cRid, cRow, err := e.selectCustomer(wctx, txn, in.CW, in.CD, in.ByLastName, in.CLast, in.C)
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

// selectCustomer resolves a customer by id or by last name (clause 2.5.2.2:
// by last name, pick the middle row ordered by c_first).
func (e *TellEngine) selectCustomer(wctx env.Ctx, txn *core.Txn, w, d int, byLast bool, last string, c int) (uint64, relational.Row, error) {
	ct := e.tables[TCustomer]
	if !byLast {
		rid, row, found, err := txn.LookupPK(wctx, ct, i64v(w), i64v(d), i64v(c))
		if err != nil || !found {
			return 0, nil, orNotFound(err, "customer")
		}
		return rid, row, nil
	}
	type match struct {
		rid uint64
		row relational.Row
	}
	var matches []match
	err := txn.ScanIndexPrefix(wctx, ct, IdxCustomerByLast,
		[]relational.Value{i64v(w), i64v(d), relational.Str(last)},
		func(en core.IndexEntry) bool {
			matches = append(matches, match{rid: en.Rid, row: en.Row})
			return true
		})
	if err != nil {
		return 0, nil, err
	}
	if len(matches) == 0 {
		return 0, nil, errUserAbort
	}
	sort.Slice(matches, func(i, j int) bool {
		return matches[i].row[CFirst].S < matches[j].row[CFirst].S
	})
	m := matches[len(matches)/2]
	return m.rid, m.row, nil
}

// OrderStatus implements the order-status transaction (clause 2.6).
func (e *TellEngine) OrderStatus(ctx env.Ctx, in *OrderStatusInput) (bool, error) {
	ot, olt := e.tables[TOrders], e.tables[TOrderLine]
	return e.run(ctx, func(wctx env.Ctx, txn *core.Txn) error {
		wctx.Work(e.pn.Costs().Logic)
		_, cRow, err := e.selectCustomer(wctx, txn, in.W, in.D, in.ByLastName, in.CLast, in.C)
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
// districts advance together in rounds, so the order and customer rows of
// all ten travel in one batched read each (§5.1); writes stay buffered until
// commit and every read sees the same snapshot, so the outcome is that of
// delivering the districts one after another.
func (e *TellEngine) Delivery(ctx env.Ctx, in *DeliveryInput) (bool, error) {
	not, ot, olt, ct := e.tables[TNewOrder], e.tables[TOrders], e.tables[TOrderLine], e.tables[TCustomer]
	return e.run(ctx, func(wctx env.Ctx, txn *core.Txn) error {
		wctx.Work(e.pn.Costs().Logic)
		// The oldest new-order of each district (ORDER BY no_o_id LIMIT 1),
		// consumed. Districts without one are skipped.
		var ds []int
		var orderKeys [][]relational.Value
		for d := 1; d <= DistrictsPerWarehouse; d++ {
			noRid, noRow, found, err := txn.FirstPK(wctx, not,
				[]relational.Value{i64v(in.W), i64v(d)},
				[]relational.Value{i64v(in.W), i64v(d + 1)})
			if err != nil {
				return err
			}
			if !found {
				continue
			}
			if _, err := txn.Delete(wctx, not, noRid); err != nil {
				return err
			}
			ds = append(ds, d)
			orderKeys = append(orderKeys, []relational.Value{i64v(in.W), i64v(d), noRow[NOOID]})
		}
		oRids, oRows, err := txn.ReadMany(wctx, ot, orderKeys)
		if err != nil {
			return err
		}
		totals := make([]float64, len(ds))
		custKeys := make([][]relational.Value, len(ds))
		for i, d := range ds {
			oRow := oRows[i]
			if oRow == nil {
				return orNotFound(nil, "order")
			}
			oNew := cloneRow(oRow)
			oNew[OCarrierID] = relational.I64(int64(in.Carrier))
			if _, err := txn.Update(wctx, ot, oRids[i], oNew); err != nil {
				return err
			}
			type olUpd struct {
				rid uint64
				row relational.Row
			}
			var upds []olUpd
			oID := oRow[OID].I
			err = txn.ScanPK(wctx, olt,
				[]relational.Value{i64v(in.W), i64v(d), relational.I64(oID)},
				[]relational.Value{i64v(in.W), i64v(d), relational.I64(oID + 1)},
				func(en core.IndexEntry) bool {
					totals[i] += en.Row[OLAmount].F
					upds = append(upds, olUpd{rid: en.Rid, row: en.Row})
					return true
				})
			if err != nil {
				return err
			}
			for _, u := range upds {
				nr := cloneRow(u.row)
				nr[OLDeliveryD] = relational.I64(int64(wctx.Now()) | 1)
				if _, err := txn.Update(wctx, olt, u.rid, nr); err != nil {
					return err
				}
			}
			custKeys[i] = []relational.Value{i64v(in.W), i64v(d), oRow[OCID]}
		}
		cRids, cRows, err := txn.ReadMany(wctx, ct, custKeys)
		if err != nil {
			return err
		}
		for i, cRow := range cRows {
			if cRow == nil {
				return orNotFound(nil, "customer")
			}
			cNew := cloneRow(cRow)
			cNew[CBalance] = relational.F64(cRow[CBalance].F + totals[i])
			cNew[CDeliveryCnt] = relational.I64(cRow[CDeliveryCnt].I + 1)
			if _, err := txn.Update(wctx, ct, cRids[i], cNew); err != nil {
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
