package exp

import (
	"fmt"
	"time"

	"tell/internal/deploy"
	"tell/internal/env"
	"tell/internal/relational"
	"tell/internal/store"
	"tell/internal/tpcc"
	"tell/internal/transport"
)

// ExtPushdown measures the §5.2 extension: an analytical aggregation over
// the TPC-C orderline table executed (a) the baseline way — ship every
// record to the PN — and (b) with selection and projection pushed down into
// the storage nodes. The paper proposes exactly this for mixed workloads;
// the table shows the traffic and latency reduction.
func ExtPushdown(opt Options) (*Table, error) {
	opt.Defaults()
	t := &Table{
		ID:     "ext-pushdown",
		Title:  "Extension (§5.2): push-down selection/projection for analytics",
		Header: []string{"strategy", "rows returned", "MB moved", "query time"},
	}
	s := deploy.NewSim(opt.Seed, transport.InfiniBand())
	if err := s.Build(deploy.Spec{Storage: store.ClusterConfig{NumNodes: 3}, CMs: 1}); err != nil {
		return nil, err
	}
	if _, err := tpcc.Load(s.Storage, opt.tpccConfig()); err != nil {
		return nil, err
	}
	if err := s.Start(); err != nil {
		return nil, err
	}
	// Analytics runs on a dedicated PN (the paper's mixed-workload scenario).
	pn := s.AddPN("olap")
	net := s.Net

	var tblErr error
	err := s.Run(time.Hour, func(ctx env.Ctx) {
		table, err := pn.Catalog().OpenTable(ctx, tpcc.TOrderLine)
		if err != nil {
			tblErr = err
			return
		}
		// Query: undelivered order lines (ol_delivery_d = 0), only the
		// amount column — a typical pre-filter for an OLAP aggregate.
		runOnce := func(push bool) (rows int, mb float64, d time.Duration) {
			before := net.Stats()
			start := ctx.Now()
			txn, err := pn.Begin(ctx)
			if err != nil {
				tblErr = err
				return
			}
			if push {
				pred := &store.Predicate{Col: tpcc.OLDeliveryD, Op: store.CmpEQ, Val: relational.I64(0)}
				err = txn.ScanTableFiltered(ctx, table, pred, []int{tpcc.OLAmount},
					func(rid uint64, row relational.Row) bool {
						rows++
						return true
					})
			} else {
				err = txn.ScanTable(ctx, table, func(rid uint64, row relational.Row) bool {
					if row[tpcc.OLDeliveryD].I == 0 {
						rows++
					}
					return true
				})
			}
			if err != nil {
				tblErr = err
			}
			//lint:allow errdiscard read-only analytics scan: commit only releases the snapshot, rows are already counted
			txn.Commit(ctx)
			after := net.Stats()
			mb = float64(after.BytesSent+after.BytesRecv-before.BytesSent-before.BytesRecv) / (1 << 20)
			d = ctx.Now() - start
			return
		}
		fullRows, fullMB, fullD := runOnce(false)
		pushRows, pushMB, pushD := runOnce(true)
		if fullRows != pushRows {
			tblErr = fmt.Errorf("exp: result mismatch: full=%d pushdown=%d", fullRows, pushRows)
			return
		}
		t.AddRow("ship-to-query (baseline)", fmt.Sprint(fullRows), f1(fullMB), fullD.String())
		t.AddRow("push-down (§5.2)", fmt.Sprint(pushRows), f1(pushMB), pushD.String())
		if pushMB > 0 {
			t.Note("identical results; push-down moved %.1f× fewer bytes", fullMB/pushMB)
		}
	})
	if err != nil {
		return nil, err
	}
	if tblErr != nil {
		return nil, tblErr
	}
	return t, nil
}
