package commitmgr_test

import (
	"fmt"
	"testing"
	"time"

	"tell/internal/commitmgr"
	"tell/internal/env"
	"tell/internal/obs"
	"tell/internal/sim"
	"tell/internal/store"
	"tell/internal/testutil"
	"tell/internal/transport"
	"tell/internal/wire"
)

// cmHarness wires a store cluster plus n commit managers on the simulator.
type cmHarness struct {
	k      *sim.Kernel
	envr   env.Full
	net    *transport.SimNet
	sc     *store.Cluster
	cms    []*commitmgr.Server
	client *commitmgr.Client
	pn     env.Node
}

func newCMHarness(t *testing.T, nCMs int) *cmHarness {
	t.Helper()
	k := sim.NewKernel(testutil.Seed(t, 3))
	envr := env.NewSim(k)
	net := transport.NewSimNet(k, transport.InfiniBand())
	sc, err := store.NewCluster(envr, net, store.ClusterConfig{NumNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := &cmHarness{k: k, envr: envr, net: net, sc: sc}
	var ids []string
	for i := 0; i < nCMs; i++ {
		ids = append(ids, fmt.Sprintf("cm%d", i))
	}
	var addrs []string
	for i := 0; i < nCMs; i++ {
		addr := fmt.Sprintf("cm%d", i)
		node := envr.NewNode(addr, 2)
		srv := commitmgr.New(addr, addr, envr, node, net, sc.NewClient(node))
		srv.Peers = ids
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		h.cms = append(h.cms, srv)
		addrs = append(addrs, addr)
	}
	h.pn = envr.NewNode("pn0", 2)
	h.client = commitmgr.NewClient(envr, h.pn, net, addrs)
	return h
}

func (h *cmHarness) run(t *testing.T, fn func(ctx env.Ctx)) {
	t.Helper()
	done := false
	h.pn.Go("test", func(ctx env.Ctx) {
		fn(ctx)
		done = true
		h.k.Stop()
	})
	if err := h.k.RunUntil(sim.Time(300 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("test activity did not finish")
	}
	h.k.Shutdown()
}

func TestStartAssignsUniqueIncreasingTids(t *testing.T) {
	h := newCMHarness(t, 1)
	h.run(t, func(ctx env.Ctx) {
		seen := make(map[uint64]bool)
		last := uint64(0)
		for i := 0; i < 100; i++ {
			res, err := h.client.Start(ctx)
			if err != nil {
				t.Fatalf("start: %v", err)
			}
			if seen[res.TID] {
				t.Fatalf("tid %d issued twice", res.TID)
			}
			seen[res.TID] = true
			if res.TID <= last {
				t.Fatalf("tid %d not increasing after %d", res.TID, last)
			}
			last = res.TID
			// Own tid is never in the snapshot.
			if res.Snap.Contains(res.TID) {
				t.Fatalf("snapshot contains own tid %d", res.TID)
			}
			h.client.Committed(ctx, res.TID)
		}
	})
}

func TestCommittedBecomesVisible(t *testing.T) {
	h := newCMHarness(t, 1)
	h.run(t, func(ctx env.Ctx) {
		t1, _ := h.client.Start(ctx)
		t2, _ := h.client.Start(ctx)
		// t2 must not see t1 (still running).
		if t2.Snap.Contains(t1.TID) {
			t.Fatal("running transaction visible")
		}
		h.client.Committed(ctx, t1.TID)
		t3, _ := h.client.Start(ctx)
		if !t3.Snap.Contains(t1.TID) {
			t.Fatal("committed transaction not visible")
		}
		if t3.Snap.Contains(t2.TID) {
			t.Fatal("still-running transaction visible")
		}
		h.client.Committed(ctx, t2.TID)
		h.client.Committed(ctx, t3.TID)
	})
}

func TestAbortedNeverEntersCommittedSetButBaseAdvances(t *testing.T) {
	h := newCMHarness(t, 1)
	h.run(t, func(ctx env.Ctx) {
		t1, _ := h.client.Start(ctx)
		h.client.Aborted(ctx, t1.TID)
		t2, _ := h.client.Start(ctx)
		// Base must have advanced past the aborted tid (its updates were
		// rolled back, so {≤b} treating it as readable is harmless —
		// there is nothing to read).
		if t2.Snap.Base < t1.TID {
			t.Fatalf("base %d did not advance past aborted %d", t2.Snap.Base, t1.TID)
		}
		h.client.Committed(ctx, t2.TID)
	})
}

func TestLavTracksOldestActive(t *testing.T) {
	h := newCMHarness(t, 1)
	h.run(t, func(ctx env.Ctx) {
		told, _ := h.client.Start(ctx) // long-running
		for i := 0; i < 20; i++ {
			r, _ := h.client.Start(ctx)
			h.client.Committed(ctx, r.TID)
		}
		r, _ := h.client.Start(ctx)
		if r.Lav > told.Snap.Base {
			t.Fatalf("lav %d advanced past oldest active's base %d", r.Lav, told.Snap.Base)
		}
		h.client.Committed(ctx, told.TID)
		h.client.Committed(ctx, r.TID)
		// After the old transaction finished, lav can move.
		r2, _ := h.client.Start(ctx)
		if r2.Lav <= told.Snap.Base {
			t.Fatalf("lav %d stuck after oldest finished", r2.Lav)
		}
		h.client.Committed(ctx, r2.TID)
	})
}

func TestIdleRangeCloseAdvancesBase(t *testing.T) {
	h := newCMHarness(t, 1)
	h.run(t, func(ctx env.Ctx) {
		r, _ := h.client.Start(ctx)
		h.client.Committed(ctx, r.TID)
		// The range has ~255 unissued tids. After a few idle sync ticks
		// they must be closed so the base advances to the range end.
		ctx.Sleep(20 * time.Millisecond)
		r2, _ := h.client.Start(ctx)
		if r2.Snap.Base < r.TID {
			t.Fatalf("base %d stalled behind unissued range (tid %d)", r2.Snap.Base, r.TID)
		}
		if len(r2.Snap.Members()) != 0 {
			t.Fatalf("descriptor still carries bits: %v", r2.Snap)
		}
		h.client.Committed(ctx, r2.TID)
	})
}

func TestTwoCommitManagersIssueDisjointTids(t *testing.T) {
	h := newCMHarness(t, 2)
	// Talk to each CM directly via separate clients.
	c0 := commitmgr.NewClient(h.envr, h.pn, h.net, []string{"cm0"})
	c1 := commitmgr.NewClient(h.envr, h.pn, h.net, []string{"cm1"})
	h.run(t, func(ctx env.Ctx) {
		seen := make(map[uint64]string)
		for i := 0; i < 50; i++ {
			r0, err := c0.Start(ctx)
			if err != nil {
				t.Fatalf("cm0 start: %v", err)
			}
			r1, err := c1.Start(ctx)
			if err != nil {
				t.Fatalf("cm1 start: %v", err)
			}
			for tid, who := range map[uint64]string{r0.TID: "cm0", r1.TID: "cm1"} {
				if prev, dup := seen[tid]; dup {
					t.Fatalf("tid %d issued by both %s and %s", tid, prev, who)
				}
				seen[tid] = who
			}
			c0.Committed(ctx, r0.TID)
			c1.Committed(ctx, r1.TID)
		}
	})
}

func TestCrossManagerVisibilityAfterSync(t *testing.T) {
	h := newCMHarness(t, 2)
	c0 := commitmgr.NewClient(h.envr, h.pn, h.net, []string{"cm0"})
	c1 := commitmgr.NewClient(h.envr, h.pn, h.net, []string{"cm1"})
	h.run(t, func(ctx env.Ctx) {
		r0, err := c0.Start(ctx)
		if err != nil {
			t.Fatalf("start: %v", err)
		}
		c0.Committed(ctx, r0.TID)
		// Within the sync interval the other manager may not know yet;
		// after a few intervals it must.
		ctx.Sleep(10 * time.Millisecond)
		r1, err := c1.Start(ctx)
		if err != nil {
			t.Fatalf("start: %v", err)
		}
		if !r1.Snap.Contains(r0.TID) {
			t.Fatalf("cm1 snapshot %v does not contain cm0's committed tid %d", r1.Snap, r0.TID)
		}
		c1.Committed(ctx, r1.TID)
	})
}

func TestClientFailsOverToNextManager(t *testing.T) {
	h := newCMHarness(t, 2)
	h.run(t, func(ctx env.Ctx) {
		r, err := h.client.Start(ctx)
		if err != nil {
			t.Fatalf("start: %v", err)
		}
		h.client.Committed(ctx, r.TID)
		// Kill cm0; the client must transparently use cm1.
		h.net.SetDown("cm0", true)
		r2, err := h.client.Start(ctx)
		if err != nil {
			t.Fatalf("start after cm0 death: %v", err)
		}
		if err := h.client.Committed(ctx, r2.TID); err != nil {
			t.Fatalf("commit after cm0 death: %v", err)
		}
	})
}

func TestFreshManagerRestoresStateFromStore(t *testing.T) {
	h := newCMHarness(t, 1)
	h.run(t, func(ctx env.Ctx) {
		var lastTid uint64
		for i := 0; i < 30; i++ {
			r, err := h.client.Start(ctx)
			if err != nil {
				t.Fatalf("start: %v", err)
			}
			h.client.Committed(ctx, r.TID)
			lastTid = r.TID
		}
		ctx.Sleep(5 * time.Millisecond) // let state publish
		// Boot a replacement manager that has never seen any traffic.
		node := h.envr.NewNode("cm9", 2)
		srv := commitmgr.New("cm9", "cm9", h.envr, node, h.net, h.sc.NewClient(node))
		srv.Peers = []string{"cm0", "cm9"}
		srv.Restore(ctx)
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		c9 := commitmgr.NewClient(h.envr, h.pn, h.net, []string{"cm9"})
		r, err := c9.Start(ctx)
		if err != nil {
			t.Fatalf("start at restored manager: %v", err)
		}
		// The restored manager must know all previous commits and issue
		// a tid beyond them (counter-based uniqueness).
		if !r.Snap.Contains(lastTid) {
			t.Fatalf("restored snapshot %v missing tid %d", r.Snap, lastTid)
		}
		if r.TID <= lastTid {
			t.Fatalf("restored manager issued stale tid %d <= %d", r.TID, lastTid)
		}
		c9.Committed(ctx, r.TID)
	})
}

func TestInterleavedTidsUniqueAndBaseAdvances(t *testing.T) {
	h := newCMHarness(t, 2)
	for _, cm := range h.cms {
		cm.Interleaved = true
		cm.TidRange = 8
	}
	c0 := commitmgr.NewClient(h.envr, h.pn, h.net, []string{"cm0"})
	c1 := commitmgr.NewClient(h.envr, h.pn, h.net, []string{"cm1"})
	h.run(t, func(ctx env.Ctx) {
		seen := make(map[uint64]bool)
		for i := 0; i < 60; i++ {
			r0, err := c0.Start(ctx)
			if err != nil {
				t.Fatalf("cm0: %v", err)
			}
			r1, err := c1.Start(ctx)
			if err != nil {
				t.Fatalf("cm1: %v", err)
			}
			if seen[r0.TID] || seen[r1.TID] || r0.TID == r1.TID {
				t.Fatalf("duplicate tid: %d / %d", r0.TID, r1.TID)
			}
			seen[r0.TID] = true
			seen[r1.TID] = true
			c0.Committed(ctx, r0.TID)
			c1.Committed(ctx, r1.TID)
		}
		// After everything finished and synced, a fresh snapshot's base
		// must cover all issued tids (no stuck residues).
		ctx.Sleep(30 * time.Millisecond)
		r, err := c0.Start(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for tid := range seen {
			if !r.Snap.Contains(tid) {
				t.Fatalf("tid %d not visible (base %d)", tid, r.Snap.Base)
			}
		}
		if len(r.Snap.Members()) != 0 {
			t.Fatalf("descriptor carries %d bits; base stalled", len(r.Snap.Members()))
		}
		c0.Committed(ctx, r.TID)
	})
}

// TestStatsSnapshot: a stats request against a commit manager must return a
// snapshot reflecting the starts it has served.
func TestStatsSnapshot(t *testing.T) {
	h := newCMHarness(t, 1)
	h.cms[0].SetObs(obs.New(obs.Config{}, h.envr.Now))
	h.run(t, func(ctx env.Ctx) {
		for i := 0; i < 3; i++ {
			if _, err := h.client.Start(ctx); err != nil {
				t.Fatalf("start: %v", err)
			}
		}
		snap := cmStats(t, ctx, h, "cm0")
		if snap.Node != "cm0" {
			t.Fatalf("node %q", snap.Node)
		}
		// The default client coalesces starts into grouped requests, so the
		// latency class is "start-group"; the split protocol records
		// "start". Sequential starts cannot batch, so either way three
		// requests were served.
		var startCount uint64
		counters := map[string]int64{}
		for _, s := range snap.Series {
			if !s.Hist {
				counters[s.Metric] = s.Total
			} else if s.Metric == "lat/start" || s.Metric == "lat/start-group" {
				startCount += s.Count
			}
		}
		if startCount != 3 {
			t.Fatalf("start(+group) class count %d, want 3", startCount)
		}
		if counters["cm/starts"] != 3 {
			t.Fatalf("cm/starts = %d", counters["cm/starts"])
		}
	})
}

// cmStats fetches a manager's stats snapshot.
func cmStats(t *testing.T, ctx env.Ctx, h *cmHarness, addr string) *wire.StatsExt {
	t.Helper()
	conn, err := h.net.Dial(h.pn, addr)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := conn.RoundTrip(ctx, wire.EncodeStatsExtReq())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := wire.DecodeStatsExt(raw)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestRestartedManagerResumesOwnState(t *testing.T) {
	// Same-id restart against a store that outlived the manager (the
	// durable-tier scenario: WAL replay brings back the tid counter and
	// the published CM state, then a cold-started cm0 must not treat the
	// old commits as uncommitted).
	h := newCMHarness(t, 1)
	h.run(t, func(ctx env.Ctx) {
		var lastTid uint64
		for i := 0; i < 30; i++ {
			r, err := h.client.Start(ctx)
			if err != nil {
				t.Fatalf("start: %v", err)
			}
			h.client.Committed(ctx, r.TID)
			lastTid = r.TID
		}
		ctx.Sleep(5 * time.Millisecond) // let cm0 publish its state
		h.cms[0].Stop()
		// Boot a fresh process with the SAME id against the same store.
		node := h.envr.NewNode("cm0b", 2)
		srv := commitmgr.New("cm0", "cm0b", h.envr, node, h.net, h.sc.NewClient(node))
		srv.Resume(ctx)
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		cb := commitmgr.NewClient(h.envr, h.pn, h.net, []string{"cm0b"})
		r, err := cb.Start(ctx)
		if err != nil {
			t.Fatalf("start at resumed manager: %v", err)
		}
		if !r.Snap.Contains(lastTid) {
			t.Fatalf("resumed snapshot %v missing committed tid %d", r.Snap, lastTid)
		}
		if r.TID <= lastTid {
			t.Fatalf("resumed manager issued stale tid %d <= %d", r.TID, lastTid)
		}
		cb.Committed(ctx, r.TID)
		// A second resume on a store with no state record is a no-op: a
		// brand-new id must still come up at base 0 without erroring.
		node2 := h.envr.NewNode("cmZ", 2)
		fresh := commitmgr.New("cmZ", "cmZ", h.envr, node2, h.net, h.sc.NewClient(node2))
		fresh.Resume(ctx)
		if err := fresh.Start(); err != nil {
			t.Fatal(err)
		}
	})
}
