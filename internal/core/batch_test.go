package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"tell/internal/core"
	"tell/internal/env"
	"tell/internal/relational"
	"tell/internal/store"
)

func TestReadManyBatchesLookups(t *testing.T) {
	e := newEngine(t, 1, core.TB)
	e.run(t, func(ctx env.Ctx) {
		pn := e.PNs[0]
		table, _ := pn.Catalog().CreateTable(ctx, accountsSchema())
		setup, _ := pn.Begin(ctx)
		for i := int64(0); i < 30; i++ {
			setup.Insert(ctx, table, account(i, fmt.Sprintf("o%d", i), i*10))
		}
		mustCommit(t, ctx, setup)

		txn, _ := pn.Begin(ctx)
		keys := [][]relational.Value{
			{relational.I64(5)},
			{relational.I64(999)}, // missing
			{relational.I64(17)},
			{relational.I64(0)},
		}
		rids, rows, err := txn.ReadMany(ctx, table, keys)
		if err != nil {
			t.Fatal(err)
		}
		if rows[0] == nil || rows[0][2].I != 50 {
			t.Fatalf("row 0: %v", rows[0])
		}
		if rids[1] != 0 || rows[1] != nil {
			t.Fatalf("missing key resolved: rid=%d row=%v", rids[1], rows[1])
		}
		if rows[2][2].I != 170 || rows[3][2].I != 0 {
			t.Fatalf("rows: %v %v", rows[2], rows[3])
		}
		// Prefetched records serve later point reads from the txn buffer,
		// and updates through them carry correct LL stamps.
		if ok, err := txn.Update(ctx, table, rids[0], account(5, "o5", 555)); !ok || err != nil {
			t.Fatalf("update after ReadMany: %v %v", ok, err)
		}
		mustCommit(t, ctx, txn)

		check, _ := pn.Begin(ctx)
		_, row, _, _ := check.LookupPK(ctx, table, relational.I64(5))
		if row[2].I != 555 {
			t.Fatalf("update lost: %v", row)
		}
		mustCommit(t, ctx, check)
	})
}

func TestReadManyUnderSharedBuffers(t *testing.T) {
	for _, buf := range []core.BufferStrategy{core.SB, core.SBVS} {
		buf := buf
		t.Run(buf.String(), func(t *testing.T) {
			e := newEngine(t, 1, buf)
			e.run(t, func(ctx env.Ctx) {
				pn := e.PNs[0]
				table, _ := pn.Catalog().CreateTable(ctx, accountsSchema())
				setup, _ := pn.Begin(ctx)
				for i := int64(0); i < 10; i++ {
					setup.Insert(ctx, table, account(i, "x", i))
				}
				mustCommit(t, ctx, setup)
				txn, _ := pn.Begin(ctx)
				keys := [][]relational.Value{{relational.I64(3)}, {relational.I64(7)}}
				_, rows, err := txn.ReadMany(ctx, table, keys)
				if err != nil || rows[0][2].I != 3 || rows[1][2].I != 7 {
					t.Fatalf("rows: %v err=%v", rows, err)
				}
				mustCommit(t, ctx, txn)
			})
		})
	}
}

func TestScanIndexExplicitRange(t *testing.T) {
	e := newEngine(t, 1, core.TB)
	e.run(t, func(ctx env.Ctx) {
		pn := e.PNs[0]
		table, _ := pn.Catalog().CreateTable(ctx, accountsSchema())
		setup, _ := pn.Begin(ctx)
		for i, name := range []string{"anna", "bert", "carl", "dora", "emil"} {
			setup.Insert(ctx, table, account(int64(i), name, 0))
		}
		mustCommit(t, ctx, setup)
		txn, _ := pn.Begin(ctx)
		var got []string
		err := txn.ScanIndex(ctx, table, "byowner",
			[]relational.Value{relational.Str("bert")},
			[]relational.Value{relational.Str("dora")},
			func(en core.IndexEntry) bool {
				got = append(got, en.Row[1].S)
				return true
			})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || got[0] != "bert" || got[1] != "carl" {
			t.Fatalf("range scan: %v", got)
		}
		// Unknown index errors cleanly.
		if err := txn.ScanIndex(ctx, table, "nope", nil, nil, func(core.IndexEntry) bool { return true }); err == nil {
			t.Fatal("unknown index accepted")
		}
		mustCommit(t, ctx, txn)
	})
}

func TestScanTableFiltered(t *testing.T) {
	e := newEngine(t, 1, core.TB)
	e.run(t, func(ctx env.Ctx) {
		pn := e.PNs[0]
		table, _ := pn.Catalog().CreateTable(ctx, accountsSchema())
		setup, _ := pn.Begin(ctx)
		for i := int64(0); i < 40; i++ {
			owner := "low"
			if i >= 20 {
				owner = "high"
			}
			setup.Insert(ctx, table, account(i, owner, i))
		}
		mustCommit(t, ctx, setup)

		txn, _ := pn.Begin(ctx)
		// Selection on balance >= 30, projection to (id, balance).
		pred := &store.Predicate{Col: 2, Op: store.CmpGE, Val: relational.I64(30)}
		var ids []int64
		err := txn.ScanTableFiltered(ctx, table, pred, []int{0, 2},
			func(rid uint64, row relational.Row) bool {
				if len(row) != 2 {
					t.Errorf("projection has %d cols", len(row))
				}
				ids = append(ids, row[0].I)
				return true
			})
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != 10 {
			t.Fatalf("matched %d rows, want 10", len(ids))
		}
		// String equality predicate, no projection.
		n := 0
		err = txn.ScanTableFiltered(ctx, table,
			&store.Predicate{Col: 1, Op: store.CmpEQ, Val: relational.Str("low")}, nil,
			func(rid uint64, row relational.Row) bool {
				if len(row) != 3 || row[1].S != "low" {
					t.Errorf("bad row %v", row)
				}
				n++
				return true
			})
		if err != nil || n != 20 {
			t.Fatalf("eq scan: %d %v", n, err)
		}
		mustCommit(t, ctx, txn)

		// Snapshot semantics: a concurrent update is invisible to an
		// older transaction's push-down scan.
		old, _ := pn.Begin(ctx)
		w, _ := pn.Begin(ctx)
		w.Insert(ctx, table, account(99, "low", 0))
		mustCommit(t, ctx, w)
		n = 0
		old.ScanTableFiltered(ctx, table,
			&store.Predicate{Col: 1, Op: store.CmpEQ, Val: relational.Str("low")}, nil,
			func(rid uint64, row relational.Row) bool { n++; return true })
		if n != 20 {
			t.Fatalf("snapshot violated: pushdown saw %d rows", n)
		}
		mustCommit(t, ctx, old)
	})
}

// TestPushdownSourceMatchesFullScan checks that the rows a storage-side
// selection and projection return equal, in order and with their record
// ids, what a full scan filtered and projected on the PN yields.
func TestPushdownSourceMatchesFullScan(t *testing.T) {
	e := newEngine(t, 1, core.TB)
	e.run(t, func(ctx env.Ctx) {
		pn := e.PNs[0]
		table, _ := pn.Catalog().CreateTable(ctx, accountsSchema())
		setup, _ := pn.Begin(ctx)
		for i := int64(0); i < 40; i++ {
			owner := "low"
			if i >= 20 {
				owner = "high"
			}
			setup.Insert(ctx, table, account(i, owner, 100+i))
		}
		mustCommit(t, ctx, setup)

		txn, _ := pn.Begin(ctx)
		// Selection on balance >= 130, projection to (balance, id).
		pred := &store.Predicate{Col: 2, Op: store.CmpGE, Val: relational.I64(130)}
		type hit struct {
			rid uint64
			row relational.Row
		}
		var pushed []hit
		err := txn.ScanTableFiltered(ctx, table, pred, []int{2, 0},
			func(rid uint64, row relational.Row) bool {
				pushed = append(pushed, hit{rid, row})
				return true
			})
		if err != nil {
			t.Fatal(err)
		}
		if len(pushed) != 10 {
			t.Fatalf("matched %d rows, want 10", len(pushed))
		}
		var reference []hit
		if err := txn.ScanTable(ctx, table, func(rid uint64, row relational.Row) bool {
			if row[2].I >= 130 {
				reference = append(reference, hit{rid, relational.Row{row[2], row[0]}})
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pushed, reference) {
			t.Fatalf("push-down rows differ from the filtered full scan:\n pushed %v\n    ref %v", pushed, reference)
		}
		mustCommit(t, ctx, txn)
	})
}
