package txlog_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"tell/internal/env"
	"tell/internal/sim"
	"tell/internal/store"
	"tell/internal/testutil"
	"tell/internal/transport"
	"tell/internal/txlog"
	"tell/internal/wire"
)

func runWithLog(t *testing.T, fn func(ctx env.Ctx, l *txlog.Log)) {
	t.Helper()
	runWithNet(t, func(ctx env.Ctx, l *txlog.Log, _ *store.Client, _ *transport.SimNet) { fn(ctx, l) })
}

// runWithNet runs fn on node pn0 with a log over a three-node store, and
// hands it the log's store client and the network, for fault hooks.
func runWithNet(t *testing.T, fn func(ctx env.Ctx, l *txlog.Log, sc *store.Client, net *transport.SimNet)) {
	t.Helper()
	k := sim.NewKernel(testutil.Seed(t, 5))
	envr := env.NewSim(k)
	net := transport.NewSimNet(k, transport.InfiniBand())
	cl, err := store.NewCluster(envr, net, store.ClusterConfig{NumNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	pn := envr.NewNode("pn0", 2)
	sc := cl.NewClient(pn)
	l := txlog.New(sc)
	done := false
	pn.Go("test", func(ctx env.Ctx) {
		fn(ctx, l, sc, net)
		done = true
		k.Stop()
	})
	if err := k.RunUntil(sim.Time(60 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("test did not finish")
	}
	k.Shutdown()
}

func TestKeyOrderMatchesTidOrder(t *testing.T) {
	prev := txlog.Key(0)
	for _, tid := range []uint64{1, 2, 255, 256, 1 << 20, 1 << 40, ^uint64(0)} {
		k := txlog.Key(tid)
		if bytes.Compare(prev, k) >= 0 {
			t.Fatalf("key order broken at tid %d", tid)
		}
		got, ok := txlog.TIDFromKey(k)
		if !ok || got != tid {
			t.Fatalf("TIDFromKey(%v) = %d, %v", k, got, ok)
		}
		prev = k
	}
	if _, ok := txlog.TIDFromKey([]byte("nonsense")); ok {
		t.Fatal("bad key accepted")
	}
}

func TestEntryCodec(t *testing.T) {
	e := &txlog.Entry{
		TID:       42,
		PN:        "pn3",
		Timestamp: 17 * time.Millisecond,
		WriteSet:  [][]byte{[]byte("t0/r1"), []byte("t0/r2")},
		Committed: true,
	}
	got, err := txlog.Decode(e.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.TID != 42 || got.PN != "pn3" || !got.Committed || got.Timestamp != e.Timestamp {
		t.Fatalf("got %+v", got)
	}
	if len(got.WriteSet) != 2 || string(got.WriteSet[1]) != "t0/r2" {
		t.Fatalf("writeset %v", got.WriteSet)
	}
}

func TestAppendAndGet(t *testing.T) {
	runWithLog(t, func(ctx env.Ctx, l *txlog.Log) {
		e := &txlog.Entry{TID: 7, PN: "pn0", WriteSet: [][]byte{[]byte("k")}}
		if _, err := l.Append(ctx, e); err != nil {
			t.Fatalf("append: %v", err)
		}
		// Double append must fail: tids are unique.
		if _, err := l.Append(ctx, e); err == nil {
			t.Fatal("double append succeeded")
		}
		got, err := l.Get(ctx, 7)
		if err != nil || got.PN != "pn0" || got.Committed {
			t.Fatalf("get: %+v %v", got, err)
		}
	})
}

// mustAppend appends an entry for tid and returns it with its stamp.
func mustAppend(t *testing.T, ctx env.Ctx, l *txlog.Log, tid uint64) (*txlog.Entry, uint64) {
	t.Helper()
	e := &txlog.Entry{TID: tid, PN: "pn0", WriteSet: [][]byte{[]byte("k")}}
	stamp, err := l.Append(ctx, e)
	if err != nil {
		t.Fatalf("append %d: %v", tid, err)
	}
	return e, stamp
}

// storeOps records the ops of every store request pn0 sends from now on.
func storeOps(t *testing.T, net *transport.SimNet) *[]wire.OpCode {
	var ops []wire.OpCode
	net.SetFaultFn(func(src, dst string, payload []byte) transport.Fault {
		if src != "pn0" || wire.PeekKind(payload) != wire.KindStoreReq {
			return transport.Fault{}
		}
		req, err := wire.DecodeStoreRequest(payload)
		if err != nil {
			t.Errorf("undecodable store request: %v", err)
			return transport.Fault{}
		}
		for _, op := range req.Ops {
			ops = append(ops, op.Code)
		}
		return transport.Fault{}
	})
	return &ops
}

func TestMarkCommitted(t *testing.T) {
	runWithLog(t, func(ctx env.Ctx, l *txlog.Log) {
		e, stamp := mustAppend(t, ctx, l, 9)
		if err := l.MarkCommitted(ctx, e, stamp); err != nil {
			t.Fatalf("mark: %v", err)
		}
		got, _ := l.Get(ctx, 9)
		if !got.Committed {
			t.Fatal("flag not set")
		}
		// Idempotent, even from the stale stamp.
		if err := l.MarkCommitted(ctx, e, stamp); err != nil {
			t.Fatalf("re-mark: %v", err)
		}
	})
}

// Setting the flag on an entry nobody touched since the append is one
// store request: a conditional put on the stamp Append returned.
func TestMarkCommittedIsOneCondPut(t *testing.T) {
	runWithNet(t, func(ctx env.Ctx, l *txlog.Log, _ *store.Client, net *transport.SimNet) {
		e, stamp := mustAppend(t, ctx, l, 9)
		ops := storeOps(t, net)
		if err := l.MarkCommitted(ctx, e, stamp); err != nil {
			t.Fatalf("mark: %v", err)
		}
		net.SetFaultFn(nil)
		if len(*ops) != 1 || (*ops)[0] != wire.OpCondPut {
			t.Fatalf("MarkCommitted sent ops %v, want one CondPut", *ops)
		}
		if got, err := l.Get(ctx, 9); err != nil || !got.Committed {
			t.Fatalf("get: %+v %v", got, err)
		}
	})
}

// A recovery fence between the append and the flag moves the stamp, so the
// flag's put fails; the entry is read back, seen aborted, and the commit is
// refused.
func TestMarkCommittedAfterFence(t *testing.T) {
	runWithLog(t, func(ctx env.Ctx, l *txlog.Log) {
		e, stamp := mustAppend(t, ctx, l, 9)
		if fenced, committed, err := l.MarkAborted(ctx, 9); !fenced || committed || err != nil {
			t.Fatalf("fence: %v %v %v", fenced, committed, err)
		}
		if err := l.MarkCommitted(ctx, e, stamp); err != txlog.ErrFenced {
			t.Fatalf("mark after fence: %v, want ErrFenced", err)
		}
		if got, err := l.Get(ctx, 9); err != nil || !got.Aborted || got.Committed {
			t.Fatalf("entry after fence: %+v %v", got, err)
		}
	})
}

// A flag put whose response was lost is retried. The storage node's
// exactly-once window answers the retry with the first attempt's result;
// where that window was lost (a fail-over), the retry conflicts with its
// own first attempt, and the read-back finds the entry committed. Both
// end committed.
func TestMarkCommittedAfterLostResponse(t *testing.T) {
	runWithNet(t, func(ctx env.Ctx, l *txlog.Log, sc *store.Client, net *transport.SimNet) {
		e, stamp := mustAppend(t, ctx, l, 9)
		dropped := false
		net.SetFaultFn(func(src, dst string, payload []byte) transport.Fault {
			if dst == "pn0" && wire.PeekKind(payload) == wire.KindStoreResp && !dropped {
				dropped = true
				return transport.Fault{Drop: true}
			}
			return transport.Fault{}
		})
		if err := l.MarkCommitted(ctx, e, stamp); err != nil {
			t.Fatalf("mark with a lost response: %v", err)
		}
		net.SetFaultFn(nil)
		if got, err := l.Get(ctx, 9); !dropped || err != nil || !got.Committed {
			t.Fatalf("dropped %v, entry %+v %v", dropped, got, err)
		}

		// The first attempt applied and its retry finds the stamp moved.
		e, stamp = mustAppend(t, ctx, l, 10)
		flagged := *e
		flagged.Committed = true
		if _, err := sc.CondPut(ctx, txlog.Key(10), flagged.Encode(), stamp); err != nil {
			t.Fatal(err)
		}
		ops := storeOps(t, net)
		if err := l.MarkCommitted(ctx, e, stamp); err != nil {
			t.Fatalf("mark conflicting with its own write: %v", err)
		}
		net.SetFaultFn(nil)
		if len(*ops) != 2 || (*ops)[0] != wire.OpCondPut || (*ops)[1] != wire.OpGet {
			t.Fatalf("MarkCommitted sent ops %v, want a CondPut and a Get", *ops)
		}
		if got, err := l.Get(ctx, 10); err != nil || !got.Committed || got.Aborted {
			t.Fatalf("entry: %+v %v", got, err)
		}
	})
}

func TestScanBackwardOrderAndBounds(t *testing.T) {
	runWithLog(t, func(ctx env.Ctx, l *txlog.Log) {
		for tid := uint64(1); tid <= 20; tid++ {
			mustAppend(t, ctx, l, tid)
		}
		var got []uint64
		if err := l.ScanBackward(ctx, 5, 15, func(e *txlog.Entry) bool {
			got = append(got, e.TID)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != 11 || got[0] != 15 || got[10] != 5 {
			t.Fatalf("got %v", got)
		}
		for i := 1; i < len(got); i++ {
			if got[i] != got[i-1]-1 {
				t.Fatalf("not descending: %v", got)
			}
		}
		// Early stop.
		n := 0
		l.ScanBackward(ctx, 0, ^uint64(0), func(e *txlog.Entry) bool {
			n++
			return n < 3
		})
		if n != 3 {
			t.Fatalf("early stop visited %d", n)
		}
	})
}

func TestTruncate(t *testing.T) {
	runWithLog(t, func(ctx env.Ctx, l *txlog.Log) {
		for tid := uint64(1); tid <= 10; tid++ {
			mustAppend(t, ctx, l, tid)
		}
		n, err := l.Truncate(ctx, 6)
		if err != nil || n != 5 {
			t.Fatalf("truncate: %d %v", n, err)
		}
		var got []uint64
		l.ScanBackward(ctx, 0, ^uint64(0), func(e *txlog.Entry) bool {
			got = append(got, e.TID)
			return true
		})
		if len(got) != 5 || got[0] != 10 || got[4] != 6 {
			t.Fatalf("after truncate: %v", got)
		}
	})
}

// TestScanStopsAtCorruptEntry is the regression test for torn/corrupted log
// records: replay must deliver every intact entry above the corruption,
// then stop cleanly with a typed error naming the offending tid — not
// return garbage, not skip silently, not visit anything below it.
func TestScanStopsAtCorruptEntry(t *testing.T) {
	k := sim.NewKernel(testutil.Seed(t, 6))
	defer k.Shutdown()
	envr := env.NewSim(k)
	net := transport.NewSimNet(k, transport.InfiniBand())
	cl, err := store.NewCluster(envr, net, store.ClusterConfig{NumNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	pn := envr.NewNode("pn0", 2)
	sc := cl.NewClient(pn)
	l := txlog.New(sc)
	done := false
	pn.Go("test", func(ctx env.Ctx) {
		defer k.Stop()
		for tid := uint64(1); tid <= 5; tid++ {
			if _, err := l.Append(ctx, &txlog.Entry{TID: tid, PN: "pn0"}); err != nil {
				t.Errorf("append %d: %v", tid, err)
				return
			}
		}
		// Tear entry 3: overwrite it with a truncated encoding, as a torn
		// store write would leave it.
		torn := (&txlog.Entry{TID: 3, PN: "pn0", WriteSet: [][]byte{[]byte("t0/r9")}}).Encode()
		if _, err := sc.Put(ctx, txlog.Key(3), torn[:len(torn)-3]); err != nil {
			t.Errorf("corrupt put: %v", err)
			return
		}

		var visited []uint64
		err := l.ScanBackward(ctx, 1, 5, func(e *txlog.Entry) bool {
			visited = append(visited, e.TID)
			return true
		})
		var ce *txlog.CorruptEntryError
		if !errors.As(err, &ce) {
			t.Errorf("scan returned %v, want CorruptEntryError", err)
			return
		}
		if ce.TID != 3 {
			t.Errorf("corrupt tid = %d, want 3", ce.TID)
		}
		if len(visited) != 2 || visited[0] != 5 || visited[1] != 4 {
			t.Errorf("visited %v, want [5 4]: intact entries above the corruption only", visited)
		}

		// Point reads report the same typed error.
		if _, err := l.Get(ctx, 3); !errors.As(err, &ce) || ce.TID != 3 {
			t.Errorf("get corrupt entry: %v", err)
		}
		// Entries on either side stay readable.
		if e, err := l.Get(ctx, 2); err != nil || e.TID != 2 {
			t.Errorf("get 2: %+v %v", e, err)
		}
		done = true
	})
	if err := k.RunUntil(sim.Time(60 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("test did not finish")
	}
}
