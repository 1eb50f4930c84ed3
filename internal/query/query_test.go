package query_test

import (
	"testing"
	"time"

	"tell/internal/core"
	"tell/internal/deploy"
	"tell/internal/env"
	"tell/internal/query"
	"tell/internal/relational"
	"tell/internal/store"
	"tell/internal/testutil"
	"tell/internal/transport"
)

// qRig is a small full stack for query tests.
type qRig struct {
	*deploy.Sim
	pn *core.PN
}

func newQRig(t *testing.T) *qRig {
	t.Helper()
	s := deploy.NewSim(testutil.Seed(t, 9), transport.InfiniBand())
	err := s.Build(deploy.Spec{Storage: store.ClusterConfig{NumNodes: 2}, CMs: 1, PNs: 1})
	if err == nil {
		err = s.Start()
	}
	if err != nil {
		t.Fatal(err)
	}
	return &qRig{Sim: s, pn: s.PNs[0]}
}

func (r *qRig) run(t *testing.T, fn func(ctx env.Ctx)) {
	t.Helper()
	if err := r.Run(300*time.Second, fn); err != nil {
		t.Fatal(err)
	}
}

// salesSchema: region, product, qty, revenue.
func salesSchema() *relational.TableSchema {
	return &relational.TableSchema{
		Name: "sales",
		Cols: []relational.Column{
			{Name: "id", Type: relational.TInt64},
			{Name: "region", Type: relational.TString},
			{Name: "product", Type: relational.TInt64},
			{Name: "qty", Type: relational.TInt64},
			{Name: "revenue", Type: relational.TFloat64},
		},
		PKCols: []int{0},
	}
}

func loadSales(t *testing.T, ctx env.Ctx, pn *core.PN) *core.TableInfo {
	t.Helper()
	table, err := pn.Catalog().CreateTable(ctx, salesSchema())
	if err != nil {
		t.Fatal(err)
	}
	txn, _ := pn.Begin(ctx)
	regions := []string{"emea", "amer", "apac"}
	for i := int64(0); i < 30; i++ {
		_, err := txn.Insert(ctx, table, relational.Row{
			relational.I64(i),
			relational.Str(regions[i%3]),
			relational.I64(i % 5),
			relational.I64(i),
			relational.F64(float64(i) * 1.5),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	return table
}

func TestSelectProjectOrderLimit(t *testing.T) {
	r := newQRig(t)
	r.run(t, func(ctx env.Ctx) {
		table := loadSales(t, ctx, r.pn)
		txn, _ := r.pn.Begin(ctx)
		defer txn.Commit(ctx)
		src, err := query.TableScan(ctx, txn, table)
		if err != nil {
			t.Fatal(err)
		}
		// SELECT id, qty WHERE region='emea' ORDER BY qty DESC-ish
		// (ascending, take via limit): qty ∈ {0,3,6,...,27}.
		it := query.Limit(
			query.OrderBy(
				query.Project(
					query.Select(src, func(row relational.Row) bool { return row[1].S == "emea" }),
					[]int{0, 3}),
				[]int{1}),
			3)
		rows, err := query.Collect(ctx, it)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 3 {
			t.Fatalf("rows = %d", len(rows))
		}
		for i, want := range []int64{0, 3, 6} {
			if rows[i][1].I != want {
				t.Fatalf("row %d qty = %d, want %d", i, rows[i][1].I, want)
			}
		}
	})
}

func TestGroupByAggregates(t *testing.T) {
	r := newQRig(t)
	r.run(t, func(ctx env.Ctx) {
		table := loadSales(t, ctx, r.pn)
		txn, _ := r.pn.Begin(ctx)
		defer txn.Commit(ctx)
		src, _ := query.TableScan(ctx, txn, table)
		// SELECT region, COUNT(*), SUM(qty), SUM(revenue), MAX(qty)
		// GROUP BY region.
		it := query.OrderBy(query.GroupBy(src, []int{1}, []query.Agg{
			{Fn: query.Count},
			{Fn: query.SumI, Col: 3},
			{Fn: query.SumF, Col: 4},
			{Fn: query.MaxV, Col: 3},
		}), []int{0})
		rows, err := query.Collect(ctx, it)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 3 {
			t.Fatalf("groups = %d", len(rows))
		}
		// Sorted by region: amer (ids ≡1 mod 3), apac (≡2), emea (≡0).
		wantSum := map[string]int64{"amer": 145, "apac": 155, "emea": 135}
		totalQty := int64(0)
		for _, row := range rows {
			region := row[0].S
			if row[1].I != 10 {
				t.Fatalf("%s count = %d", region, row[1].I)
			}
			if row[2].I != wantSum[region] {
				t.Fatalf("%s sum qty = %d, want %d", region, row[2].I, wantSum[region])
			}
			if row[4].I < 25 {
				t.Fatalf("%s max qty = %d", region, row[4].I)
			}
			totalQty += row[2].I
		}
		if totalQty != 29*30/2 {
			t.Fatalf("total qty = %d", totalQty)
		}
	})
}

func TestHashJoin(t *testing.T) {
	r := newQRig(t)
	r.run(t, func(ctx env.Ctx) {
		table := loadSales(t, ctx, r.pn)
		txn, _ := r.pn.Begin(ctx)
		defer txn.Commit(ctx)
		// Join sales (product) against a literal product dimension.
		products := query.Rows([]relational.Row{
			{relational.I64(0), relational.Str("widget")},
			{relational.I64(1), relational.Str("gadget")},
		})
		src, _ := query.TableScan(ctx, txn, table)
		it := query.HashJoin(src, products, []int{2}, []int{0})
		rows, err := query.Collect(ctx, it)
		if err != nil {
			t.Fatal(err)
		}
		// Products 0 and 1 each appear 6 times among 30 rows.
		if len(rows) != 12 {
			t.Fatalf("join rows = %d", len(rows))
		}
		for _, row := range rows {
			if len(row) != 7 {
				t.Fatalf("join width = %d", len(row))
			}
			if row[2].I != row[5].I {
				t.Fatalf("join key mismatch: %v", row)
			}
			name := row[6].S
			if name != "widget" && name != "gadget" {
				t.Fatalf("name = %q", name)
			}
		}
	})
}

func TestPushdownSourceMatchesFullScan(t *testing.T) {
	r := newQRig(t)
	r.run(t, func(ctx env.Ctx) {
		table := loadSales(t, ctx, r.pn)
		txn, _ := r.pn.Begin(ctx)
		defer txn.Commit(ctx)
		pred := &store.Predicate{Col: 1, Op: store.CmpEQ, Val: relational.Str("apac")}
		pushed, err := query.TableScanPushdown(ctx, txn, table, pred, []int{0, 4})
		if err != nil {
			t.Fatal(err)
		}
		pushedRows, _ := query.Collect(ctx, pushed)

		full, _ := query.TableScan(ctx, txn, table)
		reference, _ := query.Collect(ctx, query.Project(
			query.Select(full, func(row relational.Row) bool { return row[1].S == "apac" }),
			[]int{0, 4}))
		if len(pushedRows) != len(reference) {
			t.Fatalf("pushdown %d rows vs reference %d", len(pushedRows), len(reference))
		}
		sum1, sum2 := 0.0, 0.0
		for i := range reference {
			sum1 += reference[i][1].F
			sum2 += pushedRows[i][1].F
		}
		if sum1 != sum2 {
			t.Fatalf("revenue mismatch: %v != %v", sum1, sum2)
		}
	})
}

func TestIndexRangeSource(t *testing.T) {
	r := newQRig(t)
	r.run(t, func(ctx env.Ctx) {
		table := loadSales(t, ctx, r.pn)
		txn, _ := r.pn.Begin(ctx)
		defer txn.Commit(ctx)
		it, err := query.IndexRange(ctx, txn, table, "",
			[]relational.Value{relational.I64(10)},
			[]relational.Value{relational.I64(15)})
		if err != nil {
			t.Fatal(err)
		}
		rows, _ := query.Collect(ctx, it)
		if len(rows) != 5 || rows[0][0].I != 10 || rows[4][0].I != 14 {
			t.Fatalf("range rows: %v", rows)
		}
	})
}
