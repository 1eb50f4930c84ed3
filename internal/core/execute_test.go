package core_test

import (
	"errors"
	"testing"
	"time"

	"tell/internal/commitmgr"
	"tell/internal/core"
	"tell/internal/deploy"
	"tell/internal/env"
	"tell/internal/relational"
	"tell/internal/store"
	"tell/internal/testutil"
	"tell/internal/transport"
	"tell/internal/wire"
)

// newWorkerEngine builds nPNs processing nodes with workers workers each
// and starts their pools, so transactions run through PN.Execute.
func newWorkerEngine(t *testing.T, nPNs, workers int) *engine {
	t.Helper()
	s := deploy.NewSim(testutil.Seed(t, 21), transport.InfiniBand())
	err := s.Build(deploy.Spec{
		Storage: store.ClusterConfig{NumNodes: 3, ReplicationFactor: 1},
		CMs:     1,
		PNs:     nPNs,
		PN:      core.Config{Workers: workers},
	})
	if err == nil {
		err = s.Start()
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, pn := range s.PNs {
		pn.StartWorkers()
	}
	return &engine{s}
}

// insertAccount is an Execute body that inserts one account row.
func insertAccount(table *core.TableInfo, id int64) func(env.Ctx, *core.Txn) error {
	return func(ctx env.Ctx, txn *core.Txn) error {
		_, err := txn.Insert(ctx, table, account(id, "owner", 100))
		return err
	}
}

// cmDelay is what the tests below add to commit-manager messages.
const cmDelay = 5 * time.Millisecond

// The worker is free once the commit flag is set and the finish note is
// queued: with one worker and slow commit-manager responses, the second
// transaction's begin goes out before the first one's acknowledgement is
// back.
func TestExecuteReleasesWorkerBeforeAck(t *testing.T) {
	e := newWorkerEngine(t, 1, 1)
	e.run(t, func(ctx env.Ctx) {
		pn := e.PNs[0]
		table, err := pn.Catalog().CreateTable(ctx, accountsSchema())
		if err != nil {
			t.Fatal(err)
		}
		var startsSent []time.Duration
		e.Net.SetFaultFn(func(src, dst string, payload []byte) transport.Fault {
			switch {
			case src == pn.ID() && wire.PeekKind(payload) == wire.KindCMReq:
				if req, err := commitmgr.DecodeStartGroupReq(payload); err == nil && req.Count > 0 {
					startsSent = append(startsSent, e.Env.Now())
				}
			case dst == pn.ID() && wire.PeekKind(payload) == wire.KindCMResp:
				return transport.Fault{Delay: cmDelay}
			}
			return transport.Fault{}
		})
		var acked [2]time.Duration
		var errs [2]error
		done := [2]env.Future{e.Env.NewFuture(), e.Env.NewFuture()}
		for i := range acked {
			ctx.Go("submitter", func(sctx env.Ctx) {
				sctx.Sleep(time.Duration(i) * time.Microsecond) // submit in order
				errs[i] = pn.Execute(sctx, insertAccount(table, int64(i+1)))
				acked[i] = sctx.Now()
				done[i].Set(nil)
			})
		}
		done[0].Get(ctx)
		done[1].Get(ctx)
		e.Net.SetFaultFn(nil)
		if errs[0] != nil || errs[1] != nil {
			t.Fatalf("execute: %v, %v", errs[0], errs[1])
		}
		if len(startsSent) != 2 {
			t.Fatalf("%d start-carrying commit-manager requests, want 2", len(startsSent))
		}
		if startsSent[1] >= acked[0] {
			t.Errorf("second begin sent at %v, not before the first commit's acknowledgement at %v", startsSent[1], acked[0])
		}
	})
}

// Execute returns only once the commit manager has acknowledged the commit:
// a transaction the caller begins afterwards, even on another PN whose
// commit-manager client queues nothing behind the note, reads the row.
func TestExecuteWaitsForAck(t *testing.T) {
	e := newWorkerEngine(t, 2, 1)
	e.run(t, func(ctx env.Ctx) {
		writer, reader := e.PNs[0], e.PNs[1]
		table, err := writer.Catalog().CreateTable(ctx, accountsSchema())
		if err != nil {
			t.Fatal(err)
		}
		rtable, err := reader.Catalog().OpenTable(ctx, "accounts")
		if err != nil {
			t.Fatal(err)
		}
		e.Net.SetFaultFn(func(src, dst string, payload []byte) transport.Fault {
			if src == writer.ID() && wire.PeekKind(payload) == wire.KindCMReq {
				return transport.Fault{Delay: cmDelay}
			}
			return transport.Fault{}
		})
		if err := writer.Execute(ctx, insertAccount(table, 1)); err != nil {
			t.Fatalf("execute: %v", err)
		}
		txn, err := reader.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, found, err := txn.LookupPK(ctx, rtable, relational.I64(1)); err != nil || !found {
			t.Errorf("a transaction begun after Execute returned: found=%v err=%v", found, err)
		}
		mustCommit(t, ctx, txn)
		e.Net.SetFaultFn(nil)
	})
}

// When the commit manager cannot be reached for the acknowledgement,
// Execute reports that error: the caller was not told the commit is
// visible.
func TestExecuteReturnsAckError(t *testing.T) {
	e := newWorkerEngine(t, 1, 1)
	e.run(t, func(ctx env.Ctx) {
		pn := e.PNs[0]
		table, err := pn.Catalog().CreateTable(ctx, accountsSchema())
		if err != nil {
			t.Fatal(err)
		}
		cut := false
		e.Net.SetFaultFn(func(src, dst string, payload []byte) transport.Fault {
			cm := wire.PeekKind(payload) == wire.KindCMReq || wire.PeekKind(payload) == wire.KindCMResp
			return transport.Fault{Drop: cut && cm}
		})
		err = pn.Execute(ctx, func(wctx env.Ctx, txn *core.Txn) error {
			cut = true // after Begin: the commit manager is gone from here on
			return insertAccount(table, 1)(wctx, txn)
		})
		e.Net.SetFaultFn(nil)
		if !errors.Is(err, commitmgr.ErrUnavailable) {
			t.Fatalf("Execute with the commit manager unreachable returned %v, want %v", err, commitmgr.ErrUnavailable)
		}
	})
}
