package core_test

import (
	"fmt"
	"testing"
	"time"

	"tell/internal/core"
	"tell/internal/env"
	"tell/internal/relational"
)

// recordGets returns how many record gets fn issued: every get the storage
// nodes served during fn, less those the table's primary-key tree issued for
// its own nodes.
func (e *engine) recordGets(table *core.TableInfo, fn func()) int {
	gets := func() uint64 {
		var n uint64
		for _, sn := range e.Storage.Nodes {
			g, _, _ := sn.OpStats()
			n += g
		}
		tree, _ := table.PK.Stats()
		return n - tree
	}
	before := gets()
	fn()
	return int(gets() - before)
}

// loadAccounts creates the accounts table with one committed row per id.
func loadAccounts(t *testing.T, ctx env.Ctx, pn *core.PN, ids ...int64) *core.TableInfo {
	t.Helper()
	table, err := pn.Catalog().CreateTable(ctx, accountsSchema())
	if err != nil {
		t.Fatal(err)
	}
	setup, _ := pn.Begin(ctx)
	for _, id := range ids {
		if _, err := setup.Insert(ctx, table, account(id, fmt.Sprintf("o%d", id), id)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, ctx, setup)
	return table
}

func idRange(lo, hi int64) []int64 {
	var ids []int64
	for id := lo; id < hi; id++ {
		ids = append(ids, id)
	}
	return ids
}

func pk(id int64) []relational.Value { return []relational.Value{relational.I64(id)} }

// firstPK runs FirstPK over [lo, hi) and returns the id found (-1 for none)
// and the record gets it took.
func (e *engine) firstPK(t *testing.T, ctx env.Ctx, txn *core.Txn, table *core.TableInfo, lo, hi []relational.Value) (id int64, gets int) {
	t.Helper()
	id = -1
	gets = e.recordGets(table, func() {
		_, row, found, err := txn.FirstPK(ctx, table, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if found {
			id = row[0].I
		}
	})
	return id, gets
}

func TestFirstPKEmptyRangeFetchesNothing(t *testing.T) {
	e := newEngine(t, 1, core.TB)
	e.run(t, func(ctx env.Ctx) {
		table := loadAccounts(t, ctx, e.PNs[0], idRange(10, 20)...)
		txn, _ := e.PNs[0].Begin(ctx)
		for _, r := range [][2][]relational.Value{{pk(0), pk(10)}, {pk(20), nil}} {
			if id, gets := e.firstPK(t, ctx, txn, table, r[0], r[1]); id != -1 || gets != 0 {
				t.Fatalf("FirstPK [%v, %v): id %d after %d record gets, want none and 0", r[0], r[1], id, gets)
			}
		}
		mustCommit(t, ctx, txn)
	})
}

// Fails with the page forced to 0: the scan would fetch all 50 records.
func TestFirstPKFetchesOnePage(t *testing.T) {
	e := newEngine(t, 1, core.TB)
	e.run(t, func(ctx env.Ctx) {
		table := loadAccounts(t, ctx, e.PNs[0], idRange(1, 51)...)
		txn, _ := e.PNs[0].Begin(ctx)
		if id, gets := e.firstPK(t, ctx, txn, table, pk(1), pk(51)); id != 1 || gets > 4 {
			t.Fatalf("FirstPK over 50 live rows: id %d after %d record gets, want 1 after at most 4", id, gets)
		}
		// A bound inside the range and an unbounded top.
		if id, _ := e.firstPK(t, ctx, txn, table, pk(17), nil); id != 17 {
			t.Fatalf("FirstPK [17, ∞): id %d", id)
		}
		mustCommit(t, ctx, txn)
	})
}

// Stale entries count toward a page, so the page doubles until it reaches
// the first live row; every stale entry met on the way is collected.
func TestFirstPKGrowsPagePastStaleEntries(t *testing.T) {
	for _, tc := range []struct {
		stale int64
		gets  int // record gets: the pages up to the one holding the live row
	}{
		{stale: 3, gets: 4},
		{stale: 9, gets: 4 + 8},
		{stale: 12, gets: 4 + 8 + 16},
	} {
		t.Run(fmt.Sprint(tc.stale), func(t *testing.T) {
			e := newEngine(t, 1, core.TB)
			e.run(t, func(ctx env.Ctx) {
				pn := e.PNs[0]
				table := loadAccounts(t, ctx, pn, idRange(1, 51)...)
				del, _ := pn.Begin(ctx)
				for id := int64(1); id <= tc.stale; id++ {
					rid, _, _, _ := del.LookupPK(ctx, table, relational.I64(id))
					if ok, err := del.Delete(ctx, table, rid); !ok || err != nil {
						t.Fatalf("delete %d: %v %v", id, ok, err)
					}
				}
				mustCommit(t, ctx, del)
				ctx.Sleep(50 * time.Millisecond) // let the lav pass the deletes

				txn, _ := pn.Begin(ctx)
				if id, gets := e.firstPK(t, ctx, txn, table, pk(1), pk(51)); id != tc.stale+1 || gets != tc.gets {
					t.Fatalf("id %d after %d record gets, want %d after %d", id, gets, tc.stale+1, tc.gets)
				}
				if left := pkEntries(t, ctx, table, 1, tc.stale+1); left != 0 {
					t.Fatalf("%d of %d stale entries survived the scan", left, tc.stale)
				}
				mustCommit(t, ctx, txn)

				again, _ := pn.Begin(ctx)
				if id, gets := e.firstPK(t, ctx, again, table, pk(1), pk(51)); id != tc.stale+1 || gets != 4 {
					t.Fatalf("after GC: id %d after %d record gets, want %d after 4", id, gets, tc.stale+1)
				}
				mustCommit(t, ctx, again)
			})
		})
	}
}

// A row deleted after the snapshot was taken is still the first row.
func TestFirstPKSeesRowDeletedOutsideSnapshot(t *testing.T) {
	e := newEngine(t, 1, core.TB)
	e.run(t, func(ctx env.Ctx) {
		pn := e.PNs[0]
		table := loadAccounts(t, ctx, pn, idRange(100, 120)...)
		txn, _ := pn.Begin(ctx)
		del, _ := pn.Begin(ctx)
		rid, _, _, _ := del.LookupPK(ctx, table, relational.I64(100))
		del.Delete(ctx, table, rid)
		mustCommit(t, ctx, del)
		if id, _ := e.firstPK(t, ctx, txn, table, pk(0), nil); id != 100 {
			t.Fatalf("FirstPK: id %d, want the deleted-but-visible 100", id)
		}
		mustCommit(t, ctx, txn)
		after, _ := pn.Begin(ctx)
		if id, _ := e.firstPK(t, ctx, after, table, pk(0), nil); id != 101 {
			t.Fatalf("FirstPK after the delete: id %d, want 101", id)
		}
		mustCommit(t, ctx, after)
	})
}

// Rows inserted after the snapshot was taken are skipped, and their entries
// survive. Four of them fill the first page exactly, so the second page must
// start past the fourth: resuming at it would fetch one record less.
func TestFirstPKSkipsRowsInsertedOutsideSnapshot(t *testing.T) {
	e := newEngine(t, 1, core.TB)
	e.run(t, func(ctx env.Ctx) {
		pn := e.PNs[0]
		table := loadAccounts(t, ctx, pn, idRange(100, 120)...)
		txn, _ := pn.Begin(ctx)
		ins, _ := pn.Begin(ctx)
		for id := int64(1); id <= 4; id++ {
			ins.Insert(ctx, table, account(id, "late", id))
		}
		mustCommit(t, ctx, ins)
		if id, gets := e.firstPK(t, ctx, txn, table, pk(0), nil); id != 100 || gets != 4+8 {
			t.Fatalf("FirstPK: id %d after %d record gets, want 100 after 12", id, gets)
		}
		mustCommit(t, ctx, txn)
		after, _ := pn.Begin(ctx)
		if id, _ := e.firstPK(t, ctx, after, table, pk(0), nil); id != 1 {
			t.Fatalf("FirstPK after the insert: id %d, want 1", id)
		}
		mustCommit(t, ctx, after)
	})
}
