package recovery_test

import (
	"testing"
	"time"

	"tell/internal/commitmgr"
	"tell/internal/core"
	"tell/internal/deploy"
	"tell/internal/env"
	"tell/internal/recovery"
	"tell/internal/relational"
	"tell/internal/store"
	"tell/internal/testutil"
	"tell/internal/transport"
	"tell/internal/txlog"
)

type rig struct {
	*deploy.Sim
	mgr *recovery.Manager
}

func newRig(t *testing.T, nPNs int) *rig {
	t.Helper()
	s := deploy.NewSim(testutil.Seed(t, 31), transport.InfiniBand())
	err := s.Build(deploy.Spec{Storage: store.ClusterConfig{NumNodes: 3}, CMs: 1, PNs: nPNs})
	if err == nil {
		err = s.Start()
	}
	if err != nil {
		t.Fatal(err)
	}
	mgmtNode := s.Env.NewNode("pn-mgmt", 2)
	r := &rig{Sim: s}
	r.mgr = recovery.NewManager(s.Env, mgmtNode, s.Net, s.Storage.NewClient(mgmtNode),
		commitmgr.NewClient(s.Env, mgmtNode, s.Net, s.CMAddrs))
	for i, pn := range s.PNs {
		if err := pn.Serve(s.Net); err != nil {
			t.Fatal(err)
		}
		r.mgr.Watch(s.PNNodes[i].Name())
	}
	return r
}

func (r *rig) run(t *testing.T, fn func(ctx env.Ctx)) {
	t.Helper()
	if err := r.Run(3000*time.Second, fn); err != nil {
		t.Fatal(err)
	}
}

func schema() *relational.TableSchema {
	return &relational.TableSchema{
		Name:   "kv",
		Cols:   []relational.Column{{Name: "k", Type: relational.TInt64}, {Name: "v", Type: relational.TInt64}},
		PKCols: []int{0},
	}
}

// crashMidCommit simulates a PN that dies with partially applied updates:
// it writes the log entry and applies record changes but never sets the
// commit flag — exactly the state recovery must clean up (§4.4.1). It
// returns the log entry and the stamp its append returned.
func (r *rig) crashMidCommit(t *testing.T, ctx env.Ctx, i int, table *core.TableInfo, rid uint64, tidOut *uint64) (*txlog.Entry, uint64) {
	t.Helper()
	pn, sc := r.PNs[i], r.StoreClients[i]
	txn, err := pn.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	*tidOut = txn.TID()
	// Reproduce the commit prefix by hand: log entry + applied version.
	key := relational.RecordKey(table.Schema.ID, rid)
	log := txlog.New(sc)
	entry := &txlog.Entry{TID: txn.TID(), PN: r.PNNodes[i].Name(), WriteSet: [][]byte{key}}
	entryStamp, err := log.Append(ctx, entry)
	if err != nil {
		t.Fatal(err)
	}
	raw, stamp, err := sc.Get(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	rec := decodeRecord(t, raw)
	rec = rec.WithVersion(txn.TID(), false, encodeRow(t, table, relational.Row{relational.I64(1), relational.I64(666)}))
	if _, err := sc.CondPut(ctx, key, rec.Encode(), stamp); err != nil {
		t.Fatal(err)
	}
	// ... and then the PN "crashes": no index update, no commit flag, no
	// commit-manager notification.
	return entry, entryStamp
}

func TestRecoveryRollsBackUncommitted(t *testing.T) {
	r := newRig(t, 2)
	r.run(t, func(ctx env.Ctx) {
		pn0 := r.PNs[0]
		table, _ := pn0.Catalog().CreateTable(ctx, schema())
		setup, _ := pn0.Begin(ctx)
		rid, _ := setup.Insert(ctx, table, relational.Row{relational.I64(1), relational.I64(42)})
		if err := setup.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		var deadTid uint64
		deadEntry, deadStamp := r.crashMidCommit(t, ctx, 1, table, rid, &deadTid)

		// The partially applied version is present in the raw record.
		raw, _, _ := r.StoreClients[0].Get(ctx, relational.RecordKey(table.Schema.ID, rid))
		if n := len(decodeRecord(t, raw).Versions); n != 2 {
			t.Fatalf("expected 2 versions pre-recovery, got %d", n)
		}

		// Run recovery for pn1 directly.
		n, err := r.mgr.Recover(ctx, "pn1")
		if err != nil {
			t.Fatal(err)
		}
		if n != 1 {
			t.Fatalf("rolled back %d transactions, want 1", n)
		}
		raw, _, _ = r.StoreClients[0].Get(ctx, relational.RecordKey(table.Schema.ID, rid))
		rec := decodeRecord(t, raw)
		if len(rec.Versions) != 1 {
			t.Fatalf("version not reverted: %v", rec)
		}
		// Data is intact for new transactions.
		check, _ := pn0.Begin(ctx)
		row, found, _ := check.Read(ctx, table, rid)
		if !found || row[1].I != 42 {
			t.Fatalf("post-recovery read: %v %v", row, found)
		}
		check.Commit(ctx)
		// And the fence prevents a late commit flag.
		log := txlog.New(r.StoreClients[0])
		if err := log.MarkCommitted(ctx, deadEntry, deadStamp); err != txlog.ErrFenced {
			t.Fatalf("expected fence, got %v", err)
		}
	})
}

func TestRecoveryLeavesCommittedAlone(t *testing.T) {
	r := newRig(t, 2)
	r.run(t, func(ctx env.Ctx) {
		pn0 := r.PNs[0]
		table, _ := pn0.Catalog().CreateTable(ctx, schema())
		setup, _ := pn0.Begin(ctx)
		rid, _ := setup.Insert(ctx, table, relational.Row{relational.I64(1), relational.I64(1)})
		setup.Commit(ctx)
		// A properly committed transaction from pn1.
		t1, _ := r.PNs[1].Catalog().OpenTable(ctx, "kv")
		txn, _ := r.PNs[1].Begin(ctx)
		txn.Update(ctx, t1, rid, relational.Row{relational.I64(1), relational.I64(2)})
		if err := txn.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		n, err := r.mgr.Recover(ctx, "pn1")
		if err != nil {
			t.Fatal(err)
		}
		if n != 0 {
			t.Fatalf("recovery rolled back %d committed transactions", n)
		}
		check, _ := pn0.Begin(ctx)
		row, _, _ := check.Read(ctx, table, rid)
		if row[1].I != 2 {
			t.Fatalf("committed data lost: %v", row)
		}
		check.Commit(ctx)
	})
}

func TestFailureDetectorTriggersRecovery(t *testing.T) {
	r := newRig(t, 2)
	r.mgr.Start()
	recovered := ""
	r.mgr.OnRecovered = func(pn string, n int) { recovered = pn }
	r.run(t, func(ctx env.Ctx) {
		pn0 := r.PNs[0]
		table, _ := pn0.Catalog().CreateTable(ctx, schema())
		setup, _ := pn0.Begin(ctx)
		rid, _ := setup.Insert(ctx, table, relational.Row{relational.I64(1), relational.I64(7)})
		setup.Commit(ctx)
		var deadTid uint64
		r.crashMidCommit(t, ctx, 1, table, rid, &deadTid)
		// Kill pn1's endpoint; the failure detector must notice and
		// recover within a few ping intervals.
		r.Net.SetDown("pn1", true)
		ctx.Sleep(500 * time.Millisecond)
		if recovered != "pn1" {
			t.Fatalf("recovered = %q, want pn1", recovered)
		}
		if r.mgr.Recoveries() != 1 || r.mgr.RolledBack() != 1 {
			t.Fatalf("recoveries=%d rolledBack=%d", r.mgr.Recoveries(), r.mgr.RolledBack())
		}
		check, _ := pn0.Begin(ctx)
		row, found, _ := check.Read(ctx, table, rid)
		if !found || row[1].I != 7 {
			t.Fatalf("post-recovery: %v %v", row, found)
		}
		check.Commit(ctx)
	})
}

// TestCrashDuringPartitionDeclaredDeadOnce is the regression test for the
// failure detector double-count: an endpoint that is partitioned away from
// the management node AND crashed inside the same detection window fails its
// probes for two reasons, but it is one failure — the detector must declare
// it dead (and run recovery) exactly once, even after the partition heals
// while the node stays down.
func TestCrashDuringPartitionDeclaredDeadOnce(t *testing.T) {
	r := newRig(t, 2)
	r.mgr.Start()
	var recoveredCount int
	r.mgr.OnRecovered = func(pn string, n int) {
		if pn == "pn1" {
			recoveredCount++
		}
	}
	r.run(t, func(ctx env.Ctx) {
		pn0 := r.PNs[0]
		table, _ := pn0.Catalog().CreateTable(ctx, schema())
		setup, _ := pn0.Begin(ctx)
		rid, _ := setup.Insert(ctx, table, relational.Row{relational.I64(1), relational.I64(7)})
		setup.Commit(ctx)
		var deadTid uint64
		r.crashMidCommit(t, ctx, 1, table, rid, &deadTid)

		// Partition pn1 away from the management node, then crash it while
		// the partition is still in force: both conditions overlap the same
		// detection window.
		r.Net.DropFn = func(src, dst string) bool {
			return (src == "pn-mgmt" && dst == "pn1") || (src == "pn1" && dst == "pn-mgmt")
		}
		ctx.Sleep(20 * time.Millisecond) // a few missed pings into the window
		r.Net.SetDown("pn1", true)
		ctx.Sleep(500 * time.Millisecond)
		// Heal the partition with the node still crashed: probes keep
		// failing, but the verdict must not be re-issued.
		r.Net.DropFn = nil
		ctx.Sleep(500 * time.Millisecond)

		if recoveredCount != 1 {
			t.Fatalf("pn1 recovered %d times, want exactly 1", recoveredCount)
		}
		if r.mgr.Recoveries() != 1 {
			t.Fatalf("Recoveries = %d, want 1", r.mgr.Recoveries())
		}
	})
}

func TestRecoveryHandlesMultipleFailures(t *testing.T) {
	r := newRig(t, 3)
	r.mgr.Start()
	r.run(t, func(ctx env.Ctx) {
		pn0 := r.PNs[0]
		table, _ := pn0.Catalog().CreateTable(ctx, schema())
		setup, _ := pn0.Begin(ctx)
		rid1, _ := setup.Insert(ctx, table, relational.Row{relational.I64(1), relational.I64(1)})
		rid2, _ := setup.Insert(ctx, table, relational.Row{relational.I64(2), relational.I64(2)})
		setup.Commit(ctx)
		var tid1, tid2 uint64
		t1, _ := r.PNs[1].Catalog().OpenTable(ctx, "kv")
		t2, _ := r.PNs[2].Catalog().OpenTable(ctx, "kv")
		r.crashMidCommit(t, ctx, 1, t1, rid1, &tid1)
		r.crashMidCommit(t, ctx, 2, t2, rid2, &tid2)
		r.Net.SetDown("pn1", true)
		r.Net.SetDown("pn2", true)
		ctx.Sleep(time.Second)
		if r.mgr.Recoveries() != 2 || r.mgr.RolledBack() != 2 {
			t.Fatalf("recoveries=%d rolledBack=%d", r.mgr.Recoveries(), r.mgr.RolledBack())
		}
		check, _ := pn0.Begin(ctx)
		for i, rid := range []uint64{rid1, rid2} {
			row, found, _ := check.Read(ctx, table, rid)
			if !found || row[1].I != int64(i+1) {
				t.Fatalf("rid%d: %v %v", i+1, row, found)
			}
		}
		check.Commit(ctx)
	})
}
