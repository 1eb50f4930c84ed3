package core_test

import (
	"testing"
	"time"

	"tell/internal/core"
	"tell/internal/deploy"
	"tell/internal/env"
	"tell/internal/relational"
	"tell/internal/sim"
	"tell/internal/store"
	"tell/internal/testutil"
	"tell/internal/transport"
)

// engine is a full simulated Tell deployment: store cluster, one commit
// manager, and N processing nodes.
type engine struct{ *deploy.Sim }

func newEngine(t *testing.T, nPNs int, buffer core.BufferStrategy) *engine {
	return newEngineRF(t, nPNs, buffer, 1)
}

// newEngineRF builds the deployment with an explicit replication factor.
func newEngineRF(t *testing.T, nPNs int, buffer core.BufferStrategy, rf int) *engine {
	t.Helper()
	s := deploy.NewSim(testutil.Seed(t, 21), transport.InfiniBand())
	err := s.Build(deploy.Spec{
		Storage: store.ClusterConfig{NumNodes: 3, ReplicationFactor: rf},
		CMs:     1,
		PNs:     nPNs,
		PN:      core.Config{Buffer: buffer},
	})
	if err == nil {
		err = s.Start()
	}
	if err != nil {
		t.Fatal(err)
	}
	return &engine{s}
}

func (e *engine) run(t *testing.T, fn func(ctx env.Ctx)) {
	t.Helper()
	if err := e.Run(3000*time.Second, fn); err != nil {
		t.Fatal(err)
	}
}

// accountsSchema is a tiny bank table used by many tests.
func accountsSchema() *relational.TableSchema {
	return &relational.TableSchema{
		Name: "accounts",
		Cols: []relational.Column{
			{Name: "id", Type: relational.TInt64},
			{Name: "owner", Type: relational.TString},
			{Name: "balance", Type: relational.TInt64},
		},
		PKCols:  []int{0},
		Indexes: []relational.IndexSchema{{Name: "byowner", Cols: []int{1}}},
	}
}

func account(id int64, owner string, balance int64) relational.Row {
	return relational.Row{relational.I64(id), relational.Str(owner), relational.I64(balance)}
}

// mustCommit fails the test on any commit error.
func mustCommit(t *testing.T, ctx env.Ctx, txn *core.Txn) {
	t.Helper()
	if err := txn.Commit(ctx); err != nil {
		t.Fatalf("commit: %v", err)
	}
}

func TestInsertCommitReadBack(t *testing.T) {
	e := newEngine(t, 2, core.TB)
	e.run(t, func(ctx env.Ctx) {
		table, err := e.PNs[0].Catalog().CreateTable(ctx, accountsSchema())
		if err != nil {
			t.Fatal(err)
		}
		txn, err := e.PNs[0].Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		rid, err := txn.Insert(ctx, table, account(1, "alice", 100))
		if err != nil {
			t.Fatal(err)
		}
		// Own write is visible before commit.
		row, found, err := txn.Read(ctx, table, rid)
		if err != nil || !found || row[2].I != 100 {
			t.Fatalf("own read: %v %v %v", row, found, err)
		}
		mustCommit(t, ctx, txn)

		// Visible from ANOTHER PN: shared data, no ownership (§2.1).
		t2, _ := e.PNs[1].Catalog().OpenTable(ctx, "accounts")
		txn2, _ := e.PNs[1].Begin(ctx)
		gotRid, row, found, err := txn2.LookupPK(ctx, t2, relational.I64(1))
		if err != nil || !found || gotRid != rid || row[1].S != "alice" {
			t.Fatalf("cross-PN read: rid=%d row=%v found=%v err=%v", gotRid, row, found, err)
		}
		mustCommit(t, ctx, txn2)
	})
}

func TestSnapshotIsolationInvisibility(t *testing.T) {
	e := newEngine(t, 1, core.TB)
	e.run(t, func(ctx env.Ctx) {
		pn := e.PNs[0]
		table, _ := pn.Catalog().CreateTable(ctx, accountsSchema())
		setup, _ := pn.Begin(ctx)
		rid, _ := setup.Insert(ctx, table, account(1, "alice", 100))
		mustCommit(t, ctx, setup)

		// reader starts BEFORE writer commits.
		reader, _ := pn.Begin(ctx)
		writer, _ := pn.Begin(ctx)
		if ok, err := writer.Update(ctx, table, rid, account(1, "alice", 999)); !ok || err != nil {
			t.Fatalf("update: %v %v", ok, err)
		}
		mustCommit(t, ctx, writer)

		// The reader's snapshot predates the writer: it must see 100.
		row, found, err := reader.Read(ctx, table, rid)
		if err != nil || !found || row[2].I != 100 {
			t.Fatalf("snapshot read: %v %v %v", row, found, err)
		}
		mustCommit(t, ctx, reader)

		// A fresh transaction sees 999.
		after, _ := pn.Begin(ctx)
		row, _, _ = after.Read(ctx, table, rid)
		if row[2].I != 999 {
			t.Fatalf("fresh read: %v", row)
		}
		mustCommit(t, ctx, after)
	})
}

func TestRepeatableReads(t *testing.T) {
	e := newEngine(t, 1, core.TB)
	e.run(t, func(ctx env.Ctx) {
		pn := e.PNs[0]
		table, _ := pn.Catalog().CreateTable(ctx, accountsSchema())
		setup, _ := pn.Begin(ctx)
		rid, _ := setup.Insert(ctx, table, account(1, "a", 1))
		mustCommit(t, ctx, setup)

		reader, _ := pn.Begin(ctx)
		r1, _, _ := reader.Read(ctx, table, rid)
		writer, _ := pn.Begin(ctx)
		writer.Update(ctx, table, rid, account(1, "a", 2))
		mustCommit(t, ctx, writer)
		r2, _, _ := reader.Read(ctx, table, rid)
		if r1[2].I != r2[2].I {
			t.Fatalf("read not repeatable: %d then %d", r1[2].I, r2[2].I)
		}
		mustCommit(t, ctx, reader)
	})
}

func TestWriteWriteConflictAborts(t *testing.T) {
	e := newEngine(t, 2, core.TB)
	e.run(t, func(ctx env.Ctx) {
		table, _ := e.PNs[0].Catalog().CreateTable(ctx, accountsSchema())
		setup, _ := e.PNs[0].Begin(ctx)
		rid, _ := setup.Insert(ctx, table, account(1, "a", 10))
		mustCommit(t, ctx, setup)
		t2, _ := e.PNs[1].Catalog().OpenTable(ctx, "accounts")

		// Two transactions on different PNs update the same record.
		txA, _ := e.PNs[0].Begin(ctx)
		txB, _ := e.PNs[1].Begin(ctx)
		txA.Update(ctx, table, rid, account(1, "a", 11))
		txB.Update(ctx, t2, rid, account(1, "a", 22))
		if err := txA.Commit(ctx); err != nil {
			t.Fatalf("first committer must win: %v", err)
		}
		if err := txB.Commit(ctx); err != core.ErrConflict {
			t.Fatalf("second committer must get ErrConflict, got %v", err)
		}
		// State reflects only A.
		check, _ := e.PNs[0].Begin(ctx)
		row, _, _ := check.Read(ctx, table, rid)
		if row[2].I != 11 {
			t.Fatalf("balance = %d, want 11", row[2].I)
		}
		mustCommit(t, ctx, check)
	})
}

func TestConflictRollbackLeavesNoTrace(t *testing.T) {
	e := newEngine(t, 1, core.TB)
	e.run(t, func(ctx env.Ctx) {
		pn := e.PNs[0]
		table, _ := pn.Catalog().CreateTable(ctx, accountsSchema())
		setup, _ := pn.Begin(ctx)
		rid1, _ := setup.Insert(ctx, table, account(1, "a", 1))
		rid2, _ := setup.Insert(ctx, table, account(2, "b", 2))
		mustCommit(t, ctx, setup)

		// txB writes rid1 (will succeed apply) and rid2 (will conflict).
		txA, _ := pn.Begin(ctx)
		txB, _ := pn.Begin(ctx)
		txB.Update(ctx, table, rid1, account(1, "a", 100))
		txB.Update(ctx, table, rid2, account(2, "b", 200))
		txA.Update(ctx, table, rid2, account(2, "b", 42))
		mustCommit(t, ctx, txA)
		if err := txB.Commit(ctx); err != core.ErrConflict {
			t.Fatalf("want conflict, got %v", err)
		}
		// rid1 must have been rolled back to its original value.
		check, _ := pn.Begin(ctx)
		row, _, _ := check.Read(ctx, table, rid1)
		if row[2].I != 1 {
			t.Fatalf("rid1 balance = %d after rollback, want 1", row[2].I)
		}
		row, _, _ = check.Read(ctx, table, rid2)
		if row[2].I != 42 {
			t.Fatalf("rid2 balance = %d, want 42", row[2].I)
		}
		mustCommit(t, ctx, check)
	})
}

func TestManualAbort(t *testing.T) {
	e := newEngine(t, 1, core.TB)
	e.run(t, func(ctx env.Ctx) {
		pn := e.PNs[0]
		table, _ := pn.Catalog().CreateTable(ctx, accountsSchema())
		txn, _ := pn.Begin(ctx)
		txn.Insert(ctx, table, account(1, "ghost", 0))
		if err := txn.Abort(ctx); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(ctx); err != core.ErrTxnDone {
			t.Fatalf("commit after abort: %v", err)
		}
		check, _ := pn.Begin(ctx)
		_, _, found, _ := check.LookupPK(ctx, table, relational.I64(1))
		if found {
			t.Fatal("aborted insert visible")
		}
		mustCommit(t, ctx, check)
	})
}

func TestDeleteVisibility(t *testing.T) {
	e := newEngine(t, 1, core.TB)
	e.run(t, func(ctx env.Ctx) {
		pn := e.PNs[0]
		table, _ := pn.Catalog().CreateTable(ctx, accountsSchema())
		setup, _ := pn.Begin(ctx)
		rid, _ := setup.Insert(ctx, table, account(1, "a", 1))
		mustCommit(t, ctx, setup)

		old, _ := pn.Begin(ctx) // snapshot before the delete
		del, _ := pn.Begin(ctx)
		if ok, _ := del.Delete(ctx, table, rid); !ok {
			t.Fatal("delete found nothing")
		}
		mustCommit(t, ctx, del)

		// Old snapshot still sees the row.
		if _, found, _ := old.Read(ctx, table, rid); !found {
			t.Fatal("old snapshot lost the row")
		}
		mustCommit(t, ctx, old)
		// New snapshot does not.
		fresh, _ := pn.Begin(ctx)
		if _, found, _ := fresh.Read(ctx, table, rid); found {
			t.Fatal("deleted row visible")
		}
		// Double delete reports not-found.
		if ok, _ := fresh.Delete(ctx, table, rid); ok {
			t.Fatal("delete of deleted row reported ok")
		}
		mustCommit(t, ctx, fresh)
	})
}

func TestSecondaryIndexVersionUnaware(t *testing.T) {
	e := newEngine(t, 1, core.TB)
	e.run(t, func(ctx env.Ctx) {
		pn := e.PNs[0]
		table, _ := pn.Catalog().CreateTable(ctx, accountsSchema())
		setup, _ := pn.Begin(ctx)
		rid, _ := setup.Insert(ctx, table, account(1, "alice", 1))
		mustCommit(t, ctx, setup)

		// A snapshot from before the rename.
		old, _ := pn.Begin(ctx)

		upd, _ := pn.Begin(ctx)
		upd.Update(ctx, table, rid, account(1, "bob", 1))
		mustCommit(t, ctx, upd)

		// Old snapshot finds the row under the OLD owner value.
		var oldHits []uint64
		old.ScanIndexPrefix(ctx, table, "byowner", []relational.Value{relational.Str("alice")},
			func(en core.IndexEntry) bool {
				oldHits = append(oldHits, en.Rid)
				return true
			})
		if len(oldHits) != 1 || oldHits[0] != rid {
			t.Fatalf("old snapshot via alice: %v", oldHits)
		}
		// And NOT under bob (the visible version there is alice).
		var bobOld []uint64
		old.ScanIndexPrefix(ctx, table, "byowner", []relational.Value{relational.Str("bob")},
			func(en core.IndexEntry) bool {
				bobOld = append(bobOld, en.Rid)
				return true
			})
		if len(bobOld) != 0 {
			t.Fatalf("old snapshot via bob: %v", bobOld)
		}
		mustCommit(t, ctx, old)

		// A fresh snapshot finds it under bob, not alice.
		fresh, _ := pn.Begin(ctx)
		var freshAlice, freshBob []uint64
		fresh.ScanIndexPrefix(ctx, table, "byowner", []relational.Value{relational.Str("alice")},
			func(en core.IndexEntry) bool {
				freshAlice = append(freshAlice, en.Rid)
				return true
			})
		fresh.ScanIndexPrefix(ctx, table, "byowner", []relational.Value{relational.Str("bob")},
			func(en core.IndexEntry) bool {
				freshBob = append(freshBob, en.Rid)
				return true
			})
		if len(freshAlice) != 0 || len(freshBob) != 1 {
			t.Fatalf("fresh: alice=%v bob=%v", freshAlice, freshBob)
		}
		mustCommit(t, ctx, fresh)
	})
}

func TestIndexEntryGCOnRead(t *testing.T) {
	e := newEngine(t, 1, core.TB)
	e.run(t, func(ctx env.Ctx) {
		pn := e.PNs[0]
		table, _ := pn.Catalog().CreateTable(ctx, accountsSchema())
		setup, _ := pn.Begin(ctx)
		rid, _ := setup.Insert(ctx, table, account(1, "alice", 1))
		mustCommit(t, ctx, setup)
		// Rename several times; each adds an index entry.
		for i, name := range []string{"bob", "carol", "dave"} {
			txn, _ := pn.Begin(ctx)
			txn.Update(ctx, table, rid, account(1, name, int64(i)))
			mustCommit(t, ctx, txn)
		}
		// Once the old versions fall below the lav (all transactions
		// finished), reads through the stale entries must collect them.
		ctx.Sleep(50 * time.Millisecond) // let the idle-range close advance the lav
		probe, _ := pn.Begin(ctx)
		for _, name := range []string{"alice", "bob", "carol"} {
			probe.ScanIndexPrefix(ctx, table, "byowner", []relational.Value{relational.Str(name)},
				func(en core.IndexEntry) bool { return true })
		}
		mustCommit(t, ctx, probe)
		// The stale entries are now gone: a second scan sees an empty
		// tree range without touching any record.
		probe2, _ := pn.Begin(ctx)
		for _, name := range []string{"alice", "bob", "carol"} {
			n := 0
			probe2.ScanIndexPrefix(ctx, table, "byowner", []relational.Value{relational.Str(name)},
				func(en core.IndexEntry) bool { n++; return true })
			if n != 0 {
				t.Fatalf("stale entries for %s still produce rows", name)
			}
		}
		// The live entry works.
		found := 0
		probe2.ScanIndexPrefix(ctx, table, "byowner", []relational.Value{relational.Str("dave")},
			func(en core.IndexEntry) bool { found++; return true })
		if found != 1 {
			t.Fatalf("dave found %d times", found)
		}
		mustCommit(t, ctx, probe2)
	})
}

func TestEagerGCBoundsVersionGrowth(t *testing.T) {
	e := newEngine(t, 1, core.TB)
	e.run(t, func(ctx env.Ctx) {
		pn := e.PNs[0]
		table, _ := pn.Catalog().CreateTable(ctx, accountsSchema())
		setup, _ := pn.Begin(ctx)
		rid, _ := setup.Insert(ctx, table, account(1, "a", 0))
		mustCommit(t, ctx, setup)
		// 50 sequential updates with idle pauses so the lav advances;
		// eager GC during each update must keep the version count small.
		for i := 0; i < 50; i++ {
			txn, _ := pn.Begin(ctx)
			txn.Update(ctx, table, rid, account(1, "a", int64(i)))
			mustCommit(t, ctx, txn)
			if i%10 == 0 {
				ctx.Sleep(10 * time.Millisecond)
			}
		}
		ctx.Sleep(10 * time.Millisecond)
		// One more update triggers the final prune.
		txn, _ := pn.Begin(ctx)
		txn.Update(ctx, table, rid, account(1, "a", 999))
		mustCommit(t, ctx, txn)
		// Inspect the raw record.
		raw, _, err := pn.Store().Get(ctx, relational.RecordKey(table.Schema.ID, rid))
		if err != nil {
			t.Fatal(err)
		}
		nv := countVersions(t, raw)
		if nv > 5 {
			t.Fatalf("record has %d versions; eager GC failed", nv)
		}
	})
}

func TestLazyGCPass(t *testing.T) {
	e := newEngine(t, 1, core.TB)
	e.run(t, func(ctx env.Ctx) {
		pn := e.PNs[0]
		table, _ := pn.Catalog().CreateTable(ctx, accountsSchema())
		setup, _ := pn.Begin(ctx)
		var rids []uint64
		for i := int64(0); i < 20; i++ {
			rid, _ := setup.Insert(ctx, table, account(i, "x", i))
			rids = append(rids, rid)
		}
		mustCommit(t, ctx, setup)
		// Touch every record a few times without eager-GC opportunity
		// (lav lags while transactions overlap); then let lav advance.
		for round := 0; round < 3; round++ {
			txn, _ := pn.Begin(ctx)
			for i, rid := range rids {
				txn.Update(ctx, table, rid, account(int64(i), "x", int64(round)))
			}
			mustCommit(t, ctx, txn)
		}
		// Delete one row entirely.
		del, _ := pn.Begin(ctx)
		del.Delete(ctx, table, rids[0])
		mustCommit(t, ctx, del)
		ctx.Sleep(50 * time.Millisecond) // lav catches up
		res, err := pn.LazyGC(ctx, []*core.TableInfo{table})
		if err != nil {
			t.Fatal(err)
		}
		if res.RecordsScanned == 0 || res.RecordsPruned == 0 {
			t.Fatalf("gc did nothing: %+v", res)
		}
		if res.RecordsRemoved != 1 {
			t.Fatalf("deleted record not removed: %+v", res)
		}
		if res.LogTruncated == 0 {
			t.Fatalf("log not truncated: %+v", res)
		}
		// Data still correct afterwards.
		check, _ := pn.Begin(ctx)
		row, found, _ := check.Read(ctx, table, rids[5])
		if !found || row[2].I != 2 {
			t.Fatalf("post-GC read: %v %v", row, found)
		}
		if _, found, _ := check.Read(ctx, table, rids[0]); found {
			t.Fatal("deleted record visible after GC")
		}
		mustCommit(t, ctx, check)
	})
}

func TestDuplicatePrimaryKeyRejected(t *testing.T) {
	e := newEngine(t, 2, core.TB)
	e.run(t, func(ctx env.Ctx) {
		table, _ := e.PNs[0].Catalog().CreateTable(ctx, accountsSchema())
		t2, _ := e.PNs[1].Catalog().OpenTable(ctx, "accounts")
		txn, _ := e.PNs[0].Begin(ctx)
		txn.Insert(ctx, table, account(7, "first", 0))
		mustCommit(t, ctx, txn)
		dup, _ := e.PNs[1].Begin(ctx)
		dup.Insert(ctx, t2, account(7, "second", 0))
		if err := dup.Commit(ctx); err != core.ErrDuplicateKey {
			t.Fatalf("want ErrDuplicateKey, got %v", err)
		}
		check, _ := e.PNs[0].Begin(ctx)
		_, row, found, _ := check.LookupPK(ctx, table, relational.I64(7))
		if !found || row[1].S != "first" {
			t.Fatalf("winner: %v %v", row, found)
		}
		mustCommit(t, ctx, check)
	})
}

// TestDuplicatePrimaryKeyInOneCommit inserts two rows with the same primary
// key in one transaction: the commit inserts both entries in one batch, and
// the second must still be caught as a duplicate.
func TestDuplicatePrimaryKeyInOneCommit(t *testing.T) {
	e := newEngine(t, 1, core.TB)
	e.run(t, func(ctx env.Ctx) {
		table, _ := e.PNs[0].Catalog().CreateTable(ctx, accountsSchema())
		txn, _ := e.PNs[0].Begin(ctx)
		txn.Insert(ctx, table, account(7, "first", 0))
		txn.Insert(ctx, table, account(7, "second", 0))
		if err := txn.Commit(ctx); err != core.ErrDuplicateKey {
			t.Fatalf("want ErrDuplicateKey, got %v", err)
		}
		check, _ := e.PNs[0].Begin(ctx)
		if _, row, found, _ := check.LookupPK(ctx, table, relational.I64(7)); found {
			t.Fatalf("aborted insert visible: %v", row)
		}
		mustCommit(t, ctx, check)
	})
}

// TestStalePrimaryKeyEntryReplaced deletes a row and garbage-collects its
// record, which leaves its primary-key entry pointing at a rid with no
// record. Inserting the key again must replace that stale entry.
func TestStalePrimaryKeyEntryReplaced(t *testing.T) {
	e := newEngine(t, 1, core.TB)
	e.run(t, func(ctx env.Ctx) {
		pn := e.PNs[0]
		table, _ := pn.Catalog().CreateTable(ctx, accountsSchema())
		ins, _ := pn.Begin(ctx)
		oldRid, _ := ins.Insert(ctx, table, account(7, "first", 0))
		mustCommit(t, ctx, ins)
		del, _ := pn.Begin(ctx)
		del.Delete(ctx, table, oldRid)
		mustCommit(t, ctx, del)
		ctx.Sleep(50 * time.Millisecond) // lav catches up
		if res, err := pn.LazyGC(ctx, []*core.TableInfo{table}); err != nil || res.RecordsRemoved != 1 {
			t.Fatalf("gc: %+v %v", res, err)
		}
		pkKey := table.PKKey(account(7, "", 0))
		if v, ok, err := table.PK.Lookup(ctx, pkKey); err != nil || !ok || relational.RidFromIndexVal(v) != oldRid {
			t.Fatalf("stale entry not in place before the re-insert: %v %v", ok, err)
		}
		again, _ := pn.Begin(ctx)
		newRid, _ := again.Insert(ctx, table, account(7, "again", 0))
		mustCommit(t, ctx, again)
		if v, ok, err := table.PK.Lookup(ctx, pkKey); err != nil || !ok || relational.RidFromIndexVal(v) != newRid {
			t.Fatalf("entry not replaced: rid %d, want %d (%v %v)", relational.RidFromIndexVal(v), newRid, ok, err)
		}
		check, _ := pn.Begin(ctx)
		if _, row, found, _ := check.LookupPK(ctx, table, relational.I64(7)); !found || row[1].S != "again" {
			t.Fatalf("re-inserted row: %v %v", row, found)
		}
		mustCommit(t, ctx, check)
	})
}

// TestBankTransfersPreserveTotal is the classic isolation litmus test:
// concurrent transfers with conflict-retry must preserve the total balance.
func TestBankTransfersPreserveTotal(t *testing.T) {
	for _, buf := range []core.BufferStrategy{core.TB, core.SB, core.SBVS} {
		buf := buf
		t.Run(buf.String(), func(t *testing.T) {
			e := newEngine(t, 2, buf)
			const nAcc, nWorkers, nTransfers = 10, 6, 30
			finished := 0
			var rids []uint64
			e.Driver.Go("setup", func(ctx env.Ctx) {
				table, err := e.PNs[0].Catalog().CreateTable(ctx, accountsSchema())
				if err != nil {
					t.Error(err)
					e.K.Stop()
					return
				}
				setup, _ := e.PNs[0].Begin(ctx)
				for i := int64(0); i < nAcc; i++ {
					rid, _ := setup.Insert(ctx, table, account(i, "acct", 100))
					rids = append(rids, rid)
				}
				mustCommit(t, ctx, setup)
				for w := 0; w < nWorkers; w++ {
					w := w
					pn := e.PNs[w%len(e.PNs)]
					e.Driver.Go("worker", func(ctx env.Ctx) {
						tbl, _ := pn.Catalog().OpenTable(ctx, "accounts")
						rng := ctx.Rand()
						for i := 0; i < nTransfers; i++ {
							from := rids[rng.Intn(nAcc)]
							to := rids[rng.Intn(nAcc)]
							if from == to {
								continue
							}
							for {
								txn, err := pn.Begin(ctx)
								if err != nil {
									t.Error(err)
									return
								}
								fr, ok1, _ := txn.Read(ctx, tbl, from)
								tr, ok2, _ := txn.Read(ctx, tbl, to)
								if !ok1 || !ok2 {
									t.Error("account vanished")
									return
								}
								txn.Update(ctx, tbl, from, account(fr[0].I, "acct", fr[2].I-1))
								txn.Update(ctx, tbl, to, account(tr[0].I, "acct", tr[2].I+1))
								err = txn.Commit(ctx)
								if err == nil {
									break
								}
								if err != core.ErrConflict {
									t.Errorf("commit: %v", err)
									return
								}
							}
						}
						finished++
						if finished == nWorkers {
							// Verify the invariant.
							check, _ := pn.Begin(ctx)
							total := int64(0)
							for _, rid := range rids {
								row, _, _ := check.Read(ctx, tbl, rid)
								total += row[2].I
							}
							if total != nAcc*100 {
								t.Errorf("total = %d, want %d", total, nAcc*100)
							}
							check.Commit(ctx)
							e.K.Stop()
						}
					})
				}
			})
			if err := e.K.RunUntil(sim.Time(3000 * time.Second)); err != nil {
				t.Fatal(err)
			}
			if finished != nWorkers {
				t.Fatalf("only %d workers finished", finished)
			}
			e.K.Shutdown()
		})
	}
}

func TestBufferStrategiesSeeConsistentData(t *testing.T) {
	for _, buf := range []core.BufferStrategy{core.SB, core.SBVS} {
		buf := buf
		t.Run(buf.String(), func(t *testing.T) {
			e := newEngine(t, 2, buf)
			e.run(t, func(ctx env.Ctx) {
				table, _ := e.PNs[0].Catalog().CreateTable(ctx, accountsSchema())
				t2, _ := e.PNs[1].Catalog().OpenTable(ctx, "accounts")
				setup, _ := e.PNs[0].Begin(ctx)
				rid, _ := setup.Insert(ctx, table, account(1, "a", 1))
				mustCommit(t, ctx, setup)

				// PN1 caches the record.
				r1, _ := e.PNs[1].Begin(ctx)
				row, _, _ := r1.Read(ctx, t2, rid)
				if row[2].I != 1 {
					t.Fatalf("initial read: %v", row)
				}
				mustCommit(t, ctx, r1)

				// PN0 updates it remotely.
				u, _ := e.PNs[0].Begin(ctx)
				u.Update(ctx, table, rid, account(1, "a", 2))
				mustCommit(t, ctx, u)

				// A NEW transaction on PN1 must see the update even
				// though the record sits in PN1's shared buffer.
				r2, _ := e.PNs[1].Begin(ctx)
				row, _, _ = r2.Read(ctx, t2, rid)
				if row[2].I != 2 {
					t.Fatalf("%v buffer served stale data: %v", buf, row)
				}
				mustCommit(t, ctx, r2)
			})
		})
	}
}

func TestSharedBufferProducesHits(t *testing.T) {
	e := newEngine(t, 1, core.SB)
	e.run(t, func(ctx env.Ctx) {
		pn := e.PNs[0]
		table, _ := pn.Catalog().CreateTable(ctx, accountsSchema())
		setup, _ := pn.Begin(ctx)
		rid, _ := setup.Insert(ctx, table, account(1, "a", 1))
		mustCommit(t, ctx, setup)
		// Many read-only transactions on the same record: later ones can
		// reuse the buffered copy (their snapshots are supersets).
		for i := 0; i < 20; i++ {
			txn, _ := pn.Begin(ctx)
			txn.Read(ctx, table, rid)
			mustCommit(t, ctx, txn)
		}
		if hr := pn.SharedBufferHitRatio(); hr <= 0 {
			t.Fatalf("hit ratio = %v, expected > 0", hr)
		}
	})
}

func TestScanTableSnapshotConsistent(t *testing.T) {
	e := newEngine(t, 1, core.TB)
	e.run(t, func(ctx env.Ctx) {
		pn := e.PNs[0]
		table, _ := pn.Catalog().CreateTable(ctx, accountsSchema())
		setup, _ := pn.Begin(ctx)
		for i := int64(0); i < 15; i++ {
			setup.Insert(ctx, table, account(i, "s", i))
		}
		mustCommit(t, ctx, setup)

		scanner, _ := pn.Begin(ctx)
		// Concurrent insert must not appear in scanner's snapshot.
		w, _ := pn.Begin(ctx)
		w.Insert(ctx, table, account(99, "late", 0))
		mustCommit(t, ctx, w)

		count := 0
		sum := int64(0)
		scanner.ScanTable(ctx, table, func(rid uint64, row relational.Row) bool {
			count++
			sum += row[2].I
			return true
		})
		if count != 15 || sum != 105 {
			t.Fatalf("scan saw %d rows (sum %d), want 15 (105)", count, sum)
		}
		mustCommit(t, ctx, scanner)
	})
}

func TestWriteSkewIsAllowed(t *testing.T) {
	// SI famously permits write skew (§4.1: "some anomalies prevent SI to
	// guarantee serializability"). This documents the behaviour.
	e := newEngine(t, 1, core.TB)
	e.run(t, func(ctx env.Ctx) {
		pn := e.PNs[0]
		table, _ := pn.Catalog().CreateTable(ctx, accountsSchema())
		setup, _ := pn.Begin(ctx)
		r1, _ := setup.Insert(ctx, table, account(1, "x", 50))
		r2, _ := setup.Insert(ctx, table, account(2, "y", 50))
		mustCommit(t, ctx, setup)

		// Each txn checks the sum and withdraws from a DIFFERENT row:
		// disjoint write sets, so both commit under SI.
		a, _ := pn.Begin(ctx)
		b, _ := pn.Begin(ctx)
		a.Read(ctx, table, r1)
		a.Read(ctx, table, r2)
		b.Read(ctx, table, r1)
		b.Read(ctx, table, r2)
		a.Update(ctx, table, r1, account(1, "x", -30))
		b.Update(ctx, table, r2, account(2, "y", -30))
		if err := a.Commit(ctx); err != nil {
			t.Fatalf("a: %v", err)
		}
		if err := b.Commit(ctx); err != nil {
			t.Fatalf("b (write skew should be permitted under SI): %v", err)
		}
	})
}

func TestReadOnlyTransactionCheap(t *testing.T) {
	e := newEngine(t, 1, core.TB)
	e.run(t, func(ctx env.Ctx) {
		pn := e.PNs[0]
		table, _ := pn.Catalog().CreateTable(ctx, accountsSchema())
		setup, _ := pn.Begin(ctx)
		rid, _ := setup.Insert(ctx, table, account(1, "a", 1))
		mustCommit(t, ctx, setup)
		txn, _ := pn.Begin(ctx)
		txn.Read(ctx, table, rid)
		if err := txn.Commit(ctx); err != nil {
			t.Fatalf("read-only commit: %v", err)
		}
		// The setup commit plus the read-only commit.
		commits, aborts := pn.Stats()
		if commits != 2 || aborts != 0 {
			t.Fatalf("stats: %d commits %d aborts", commits, aborts)
		}
	})
}

func TestDeleteOwnInsertWithinTransaction(t *testing.T) {
	e := newEngine(t, 1, core.TB)
	e.run(t, func(ctx env.Ctx) {
		pn := e.PNs[0]
		table, _ := pn.Catalog().CreateTable(ctx, accountsSchema())
		txn, _ := pn.Begin(ctx)
		rid, _ := txn.Insert(ctx, table, account(1, "ephemeral", 0))
		rid2, _ := txn.Insert(ctx, table, account(2, "kept", 0))
		if ok, err := txn.Delete(ctx, table, rid); !ok || err != nil {
			t.Fatalf("delete own insert: %v %v", ok, err)
		}
		// The deleted insert is gone even within the transaction.
		if _, found, _ := txn.Read(ctx, table, rid); found {
			t.Fatal("deleted own insert still readable")
		}
		mustCommit(t, ctx, txn)
		check, _ := pn.Begin(ctx)
		if _, _, found, _ := check.LookupPK(ctx, table, relational.I64(1)); found {
			t.Fatal("ephemeral row committed")
		}
		if row, found, _ := check.Read(ctx, table, rid2); !found || row[1].S != "kept" {
			t.Fatalf("kept row: %v %v", row, found)
		}
		mustCommit(t, ctx, check)
	})
}

func TestUpdateOwnInsertWithinTransaction(t *testing.T) {
	e := newEngine(t, 1, core.TB)
	e.run(t, func(ctx env.Ctx) {
		pn := e.PNs[0]
		table, _ := pn.Catalog().CreateTable(ctx, accountsSchema())
		txn, _ := pn.Begin(ctx)
		rid, _ := txn.Insert(ctx, table, account(5, "v1", 0))
		// "Further updates to the record directly modify the newly added
		// version" (§5.1): still one version at commit.
		if ok, err := txn.Update(ctx, table, rid, account(5, "v2", 1)); !ok || err != nil {
			t.Fatalf("update own insert: %v %v", ok, err)
		}
		mustCommit(t, ctx, txn)
		check, _ := pn.Begin(ctx)
		_, row, found, _ := check.LookupPK(ctx, table, relational.I64(5))
		if !found || row[1].S != "v2" {
			t.Fatalf("row: %v %v", row, found)
		}
		raw, _, err := pn.Store().Get(ctx, relational.RecordKey(table.Schema.ID, rid))
		if err != nil {
			t.Fatal(err)
		}
		if n := countVersions(t, raw); n != 1 {
			t.Fatalf("record has %d versions, want 1", n)
		}
		mustCommit(t, ctx, check)
	})
}
