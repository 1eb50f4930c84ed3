package store_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"tell/internal/env"
	"tell/internal/obs"
	"tell/internal/sim"
	"tell/internal/store"
	"tell/internal/testutil"
	"tell/internal/transport"
	"tell/internal/wire"
)

// harness bundles a simulated storage cluster with a client.
type harness struct {
	k       *sim.Kernel
	envr    env.Full
	net     *transport.SimNet
	cluster *store.Cluster
	client  *store.Client
	pn      env.Node
}

func newHarness(t testing.TB, cfg store.ClusterConfig) *harness {
	t.Helper()
	k := sim.NewKernel(testutil.Seed(t, 7))
	envr := env.NewSim(k)
	net := transport.NewSimNet(k, transport.InfiniBand())
	cl, err := store.NewCluster(envr, net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pn := envr.NewNode("pn0", 4)
	return &harness{k: k, envr: envr, net: net, cluster: cl, client: cl.NewClient(pn), pn: pn}
}

// run executes fn as a simulated activity and drives the kernel until the
// simulation drains or the deadline passes.
func (h *harness) run(t testing.TB, fn func(ctx env.Ctx)) {
	t.Helper()
	done := false
	h.pn.Go("test", func(ctx env.Ctx) {
		fn(ctx)
		done = true
		h.k.Stop()
	})
	if err := h.k.RunUntil(sim.Time(600 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("test activity did not finish (simulated deadlock or timeout)")
	}
}

func (h *harness) close() { h.k.Shutdown() }

func TestGetPutRoundTrip(t *testing.T) {
	h := newHarness(t, store.ClusterConfig{NumNodes: 3})
	defer h.close()
	h.run(t, func(ctx env.Ctx) {
		if _, _, err := h.client.Get(ctx, []byte("missing")); err != store.ErrNotFound {
			t.Errorf("get missing: %v", err)
		}
		st, err := h.client.Put(ctx, []byte("k"), []byte("v1"))
		if err != nil {
			t.Fatalf("put: %v", err)
		}
		val, st2, err := h.client.Get(ctx, []byte("k"))
		if err != nil || string(val) != "v1" || st2 != st {
			t.Fatalf("get: %q %d %v (put stamp %d)", val, st2, err, st)
		}
	})
}

func TestLLSCDetectsInterference(t *testing.T) {
	h := newHarness(t, store.ClusterConfig{NumNodes: 1})
	defer h.close()
	h.run(t, func(ctx env.Ctx) {
		st, _ := h.client.Put(ctx, []byte("k"), []byte("v1"))
		// Load-link.
		_, stamp, _ := h.client.Get(ctx, []byte("k"))
		if stamp != st {
			t.Fatalf("stamp mismatch %d != %d", stamp, st)
		}
		// Interfering write.
		h.client.Put(ctx, []byte("k"), []byte("v2"))
		// Store-conditional must fail.
		if _, err := h.client.CondPut(ctx, []byte("k"), []byte("v3"), stamp); err != store.ErrConflict {
			t.Fatalf("condput after interference: %v", err)
		}
		// Value is untouched.
		val, _, _ := h.client.Get(ctx, []byte("k"))
		if string(val) != "v2" {
			t.Fatalf("value = %q", val)
		}
	})
}

func TestLLSCSolvesABA(t *testing.T) {
	// A CAS on values would wrongly succeed when the value returns to its
	// original bytes; the stamp-based LL/SC must not.
	h := newHarness(t, store.ClusterConfig{NumNodes: 1})
	defer h.close()
	h.run(t, func(ctx env.Ctx) {
		h.client.Put(ctx, []byte("k"), []byte("A"))
		_, stamp, _ := h.client.Get(ctx, []byte("k"))
		h.client.Put(ctx, []byte("k"), []byte("B"))
		h.client.Put(ctx, []byte("k"), []byte("A")) // back to A
		if _, err := h.client.CondPut(ctx, []byte("k"), []byte("C"), stamp); err != store.ErrConflict {
			t.Fatalf("ABA write succeeded: %v", err)
		}
	})
}

func TestCondPutInsertSemantics(t *testing.T) {
	h := newHarness(t, store.ClusterConfig{NumNodes: 2})
	defer h.close()
	h.run(t, func(ctx env.Ctx) {
		// Stamp 0 = insert; succeeds only when absent.
		if _, err := h.client.CondPut(ctx, []byte("new"), []byte("v"), 0); err != nil {
			t.Fatalf("insert: %v", err)
		}
		if _, err := h.client.CondPut(ctx, []byte("new"), []byte("v2"), 0); err != store.ErrConflict {
			t.Fatalf("re-insert: %v", err)
		}
		// CondPut on a missing key with non-zero stamp reports NotFound.
		if _, err := h.client.CondPut(ctx, []byte("gone"), []byte("v"), 42); err != store.ErrNotFound {
			t.Fatalf("condput missing: %v", err)
		}
	})
}

func TestDeleteAndTombstones(t *testing.T) {
	h := newHarness(t, store.ClusterConfig{NumNodes: 2})
	defer h.close()
	h.run(t, func(ctx env.Ctx) {
		st, _ := h.client.Put(ctx, []byte("k"), []byte("v"))
		// Conditional delete with wrong stamp fails.
		if err := h.client.Delete(ctx, []byte("k"), st+999); err != store.ErrConflict {
			t.Fatalf("conditional delete wrong stamp: %v", err)
		}
		if err := h.client.Delete(ctx, []byte("k"), st); err != nil {
			t.Fatalf("delete: %v", err)
		}
		if _, _, err := h.client.Get(ctx, []byte("k")); err != store.ErrNotFound {
			t.Fatalf("get after delete: %v", err)
		}
		if err := h.client.Delete(ctx, []byte("k"), 0); err != store.ErrNotFound {
			t.Fatalf("double delete: %v", err)
		}
		// Re-insert over the tombstone.
		if _, err := h.client.CondPut(ctx, []byte("k"), []byte("v2"), 0); err != nil {
			t.Fatalf("insert over tombstone: %v", err)
		}
		val, _, err := h.client.Get(ctx, []byte("k"))
		if err != nil || string(val) != "v2" {
			t.Fatalf("get after re-insert: %q %v", val, err)
		}
	})
}

func TestCounters(t *testing.T) {
	h := newHarness(t, store.ClusterConfig{NumNodes: 3})
	defer h.close()
	h.run(t, func(ctx env.Ctx) {
		v, err := h.client.CounterAdd(ctx, []byte("ctr"), 5)
		if err != nil || v != 5 {
			t.Fatalf("add: %d %v", v, err)
		}
		v, _ = h.client.CounterAdd(ctx, []byte("ctr"), 256)
		if v != 261 {
			t.Fatalf("add: %d", v)
		}
		v, _ = h.client.CounterAdd(ctx, []byte("ctr"), -1)
		if v != 260 {
			t.Fatalf("negative delta: %d", v)
		}
	})
}

func TestCounterConcurrentAtomicity(t *testing.T) {
	// 8 concurrent workers, 50 increments each: the counter must land on
	// exactly 400 — the uniqueness guarantee tid allocation relies on.
	h := newHarness(t, store.ClusterConfig{NumNodes: 3})
	defer h.close()
	const workers, incs = 8, 50
	doneCount := 0
	for w := 0; w < workers; w++ {
		h.pn.Go("worker", func(ctx env.Ctx) {
			for i := 0; i < incs; i++ {
				if _, err := h.client.CounterAdd(ctx, []byte("tid"), 1); err != nil {
					t.Errorf("add: %v", err)
				}
			}
			doneCount++
		})
	}
	h.pn.Go("check", func(ctx env.Ctx) {
		for doneCount < workers {
			ctx.Sleep(time.Millisecond)
		}
		v, err := h.client.CounterAdd(ctx, []byte("tid"), 0)
		if err != nil || v != workers*incs {
			t.Errorf("final counter = %d, want %d (err %v)", v, workers*incs, err)
		}
		h.k.Stop()
	})
	if err := h.k.RunUntil(sim.Time(60 * time.Second)); err != nil {
		t.Fatal(err)
	}
}

func TestBatchExecMixedOps(t *testing.T) {
	h := newHarness(t, store.ClusterConfig{NumNodes: 3})
	defer h.close()
	h.run(t, func(ctx env.Ctx) {
		ops := []wire.Op{
			{Code: wire.OpPut, Key: []byte("a"), Val: []byte("1")},
			{Code: wire.OpPut, Key: []byte("b"), Val: []byte("2")},
			{Code: wire.OpGet, Key: []byte("a")},
			{Code: wire.OpCounterAdd, Key: []byte("c"), Delta: 7},
		}
		res, err := h.client.Exec(ctx, ops)
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Status != wire.StatusOK || res[1].Status != wire.StatusOK {
			t.Fatalf("puts: %+v", res[:2])
		}
		if res[2].Status != wire.StatusOK || string(res[2].Val) != "1" {
			t.Fatalf("get: %+v", res[2])
		}
		if res[3].Count != 7 {
			t.Fatalf("counter: %+v", res[3])
		}
	})
}

func TestBatchingCoalescesRequests(t *testing.T) {
	// Many concurrent single-op calls from one PN toward one SN must be
	// carried by far fewer requests (§5.1).
	h := newHarness(t, store.ClusterConfig{NumNodes: 1})
	defer h.close()
	const workers = 32
	done := 0
	for w := 0; w < workers; w++ {
		w := w
		h.pn.Go("worker", func(ctx env.Ctx) {
			for i := 0; i < 10; i++ {
				key := []byte(fmt.Sprintf("w%dk%d", w, i))
				if _, err := h.client.Put(ctx, key, []byte("v")); err != nil {
					t.Errorf("put: %v", err)
				}
			}
			done++
			if done == workers {
				h.k.Stop()
			}
		})
	}
	if err := h.k.RunUntil(sim.Time(60 * time.Second)); err != nil {
		t.Fatal(err)
	}
	ops, batches := h.client.Ops(), h.client.Batches()
	if ops != workers*10 {
		t.Fatalf("ops = %d", ops)
	}
	if batches >= ops {
		t.Fatalf("no batching achieved: %d batches for %d ops", batches, ops)
	}
	t.Logf("batching factor: %.1f ops/request", float64(ops)/float64(batches))
}

func TestScanAcrossPartitions(t *testing.T) {
	h := newHarness(t, store.ClusterConfig{NumNodes: 3, PartitionsPerNode: 2})
	defer h.close()
	h.run(t, func(ctx env.Ctx) {
		for i := 0; i < 40; i++ {
			key := []byte(fmt.Sprintf("scan/%03d", i))
			if _, err := h.client.Put(ctx, key, []byte{byte(i)}); err != nil {
				t.Fatalf("put: %v", err)
			}
		}
		pairs, err := h.client.Scan(ctx, []byte("scan/"), []byte("scan/~"), 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(pairs) != 40 {
			t.Fatalf("scan returned %d pairs", len(pairs))
		}
		for i, p := range pairs {
			want := fmt.Sprintf("scan/%03d", i)
			if string(p.Key) != want {
				t.Fatalf("pair %d key %q, want %q", i, p.Key, want)
			}
		}
		// Limited reverse scan: the merge must order across partitions
		// before it cuts, so the limit keeps the globally largest keys.
		pairs, err = h.client.Scan(ctx, []byte("scan/"), []byte("scan/~"), 5, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(pairs) != 5 {
			t.Fatalf("reverse: %d pairs, want 5", len(pairs))
		}
		for i, p := range pairs {
			if want := fmt.Sprintf("scan/%03d", 39-i); string(p.Key) != want {
				t.Fatalf("reverse pair %d key %q, want %q", i, p.Key, want)
			}
		}
	})
}

func TestReplicationCopiesData(t *testing.T) {
	h := newHarness(t, store.ClusterConfig{NumNodes: 3, ReplicationFactor: 3})
	defer h.close()
	h.run(t, func(ctx env.Ctx) {
		for i := 0; i < 30; i++ {
			if _, err := h.client.Put(ctx, []byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
				t.Fatalf("put: %v", err)
			}
		}
	})
	// With RF3 on 3 nodes every node holds every key.
	for _, n := range h.cluster.Nodes {
		if n.Keys() != 30 {
			t.Fatalf("node %s holds %d keys, want 30", n.Addr(), n.Keys())
		}
	}
}

func TestBulkLoadVisibleToClient(t *testing.T) {
	h := newHarness(t, store.ClusterConfig{NumNodes: 3, ReplicationFactor: 2})
	defer h.close()
	for i := 0; i < 20; i++ {
		if err := h.cluster.BulkLoad([]byte(fmt.Sprintf("bulk%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	h.run(t, func(ctx env.Ctx) {
		val, stamp, err := h.client.Get(ctx, []byte("bulk7"))
		if err != nil || string(val) != "v" || stamp == 0 {
			t.Fatalf("get bulk7: %q %d %v", val, stamp, err)
		}
		// LL/SC works on bulk-loaded cells.
		if _, err := h.client.CondPut(ctx, []byte("bulk7"), []byte("v2"), stamp); err != nil {
			t.Fatalf("condput on bulk cell: %v", err)
		}
	})
}

func TestMasterFailoverPreservesData(t *testing.T) {
	h := newHarness(t, store.ClusterConfig{NumNodes: 3, ReplicationFactor: 2})
	defer h.close()
	h.run(t, func(ctx env.Ctx) {
		for i := 0; i < 50; i++ {
			if _, err := h.client.Put(ctx, []byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
				t.Fatalf("put: %v", err)
			}
		}
		// Kill sn0. The failure detector needs a few ping rounds.
		h.net.SetDown("sn0", true)
		ctx.Sleep(500 * time.Millisecond)
		// All keys must still be readable (promoted replicas serve them).
		for i := 0; i < 50; i++ {
			val, _, err := h.client.Get(ctx, []byte(fmt.Sprintf("k%d", i)))
			if err != nil || string(val) != "v" {
				t.Fatalf("get k%d after failover: %q %v", i, val, err)
			}
		}
		// Writes work too.
		if _, err := h.client.Put(ctx, []byte("post-failover"), []byte("v")); err != nil {
			t.Fatalf("put after failover: %v", err)
		}
	})
	if h.cluster.Manager.Failovers() != 1 {
		t.Fatalf("failovers = %d", h.cluster.Manager.Failovers())
	}
}

func TestFailoverRestoresReplicationFromSpare(t *testing.T) {
	// Losing sn0 costs one master copy and one replica copy, so two
	// spares are needed to restore RF2 everywhere.
	h := newHarness(t, store.ClusterConfig{NumNodes: 3, ReplicationFactor: 2, Spares: 2})
	defer h.close()
	h.run(t, func(ctx env.Ctx) {
		for i := 0; i < 50; i++ {
			if _, err := h.client.Put(ctx, []byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
				t.Fatalf("put: %v", err)
			}
		}
		h.net.SetDown("sn0", true)
		ctx.Sleep(time.Second)
		// The spare (sn3) must have been recruited and backfilled.
		pm := h.cluster.Manager.Map()
		uses := 0
		for _, p := range pm.Partitions {
			if p.Master == "sn3" {
				uses++
			}
			for _, r := range p.Replicas {
				if r == "sn3" {
					uses++
				}
			}
			if 1+len(p.Replicas) != 2 {
				t.Fatalf("partition %d has RF %d, want 2", p.ID, 1+len(p.Replicas))
			}
		}
		if uses == 0 {
			t.Fatal("spare was not recruited")
		}
	})
	if got := h.cluster.Node("sn3").Keys(); got == 0 {
		t.Fatal("spare received no data")
	}
}

func TestWrongPartitionRetryAfterReconfiguration(t *testing.T) {
	// A client with a stale map must transparently re-route.
	h := newHarness(t, store.ClusterConfig{NumNodes: 3, ReplicationFactor: 2})
	defer h.close()
	h.run(t, func(ctx env.Ctx) {
		if _, err := h.client.Put(ctx, []byte("k"), []byte("v")); err != nil {
			t.Fatalf("put: %v", err)
		}
		// Client has cached the map. Now fail sn1 and wait for failover.
		h.net.SetDown("sn1", true)
		ctx.Sleep(500 * time.Millisecond)
		// Every key (some of which lived on sn1) must still be writable
		// through the stale client.
		for i := 0; i < 30; i++ {
			if _, err := h.client.Put(ctx, []byte(fmt.Sprintf("x%d", i)), []byte("v")); err != nil {
				t.Fatalf("put x%d: %v", i, err)
			}
		}
	})
}

func TestLLSCLostUpdatePrevention(t *testing.T) {
	// Concurrent read-modify-write via LL/SC retry loops must not lose
	// updates: the classic optimistic-concurrency litmus test.
	h := newHarness(t, store.ClusterConfig{NumNodes: 2})
	defer h.close()
	const workers, incs = 6, 20
	done := 0
	h.pn.Go("init", func(ctx env.Ctx) {
		h.client.Put(ctx, []byte("n"), []byte{0, 0})
		for w := 0; w < workers; w++ {
			h.pn.Go("incr", func(ctx env.Ctx) {
				for i := 0; i < incs; i++ {
					for {
						val, stamp, err := h.client.Get(ctx, []byte("n"))
						if err != nil {
							t.Errorf("get: %v", err)
							return
						}
						n := int(val[0])<<8 | int(val[1])
						n++
						nv := []byte{byte(n >> 8), byte(n)}
						if _, err := h.client.CondPut(ctx, []byte("n"), nv, stamp); err == nil {
							break
						} else if err != store.ErrConflict {
							t.Errorf("condput: %v", err)
							return
						}
					}
				}
				done++
			})
		}
		// Coordinator: wait for all workers, verify, then stop.
		h.pn.Go("check", func(ctx env.Ctx) {
			for done < workers {
				ctx.Sleep(time.Millisecond)
			}
			val, _, err := h.client.Get(ctx, []byte("n"))
			if err != nil {
				t.Errorf("final get: %v", err)
			} else if n := int(val[0])<<8 | int(val[1]); n != workers*incs {
				t.Errorf("final = %d, want %d (lost updates)", n, workers*incs)
			}
			h.k.Stop()
		})
	})
	if err := h.k.RunUntil(sim.Time(120 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if done != workers {
		t.Fatalf("only %d workers finished", done)
	}
}

func TestPartitionMapCodec(t *testing.T) {
	pm := &store.PartitionMap{
		Epoch: 42,
		Partitions: []store.Partition{
			{ID: 0, LoHash: 0, HiHash: 1 << 62, Master: "sn0", Replicas: []string{"sn1", "sn2"}},
			{ID: 1, LoHash: 1<<62 + 1, HiHash: ^uint64(0), Master: "sn1"},
		},
	}
	got, err := store.DecodePartitionMap(pm.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 42 || len(got.Partitions) != 2 {
		t.Fatalf("header: %+v", got)
	}
	if got.Partitions[0].Master != "sn0" || len(got.Partitions[0].Replicas) != 2 {
		t.Fatalf("partition 0: %+v", got.Partitions[0])
	}
	if got.Partitions[1].HiHash != ^uint64(0) {
		t.Fatalf("partition 1: %+v", got.Partitions[1])
	}
}

func TestEvenPartitionsCoverHashSpace(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16} {
		parts := store.EvenPartitions(n)
		if len(parts) != n {
			t.Fatalf("n=%d: %d partitions", n, len(parts))
		}
		if parts[0].LoHash != 0 || parts[n-1].HiHash != ^uint64(0) {
			t.Fatalf("n=%d: ends not covered", n)
		}
		for i := 1; i < n; i++ {
			if parts[i].LoHash != parts[i-1].HiHash+1 {
				t.Fatalf("n=%d: gap at %d", n, i)
			}
		}
	}
	// Every hash maps to exactly one partition.
	pm := &store.PartitionMap{Partitions: store.EvenPartitions(7)}
	for _, h := range []uint64{0, 1, 1 << 30, 1 << 63, ^uint64(0)} {
		if _, ok := pm.Lookup(h); !ok {
			t.Fatalf("hash %d unowned", h)
		}
	}
}

func TestClientWorksOverLocalNet(t *testing.T) {
	// The same cluster code must run on the real-time transport.
	envr := env.NewReal(1)
	net := transport.NewLocalNet()
	cl, err := store.NewCluster(envr, net, store.ClusterConfig{NumNodes: 2, ReplicationFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Manager.Stop()
	pn := envr.NewNode("pn0", 2)
	client := cl.NewClient(pn)
	// Real-env batcher activities are OS goroutines; Close wakes them so
	// the package leak checker sees them exit.
	defer client.Close()
	done := make(chan error, 1)
	pn.Go("test", func(ctx env.Ctx) {
		if _, err := client.Put(ctx, []byte("k"), []byte("v")); err != nil {
			done <- err
			return
		}
		val, stamp, err := client.Get(ctx, []byte("k"))
		if err != nil || string(val) != "v" {
			done <- fmt.Errorf("get: %q %v", val, err)
			return
		}
		if _, err := client.CondPut(ctx, []byte("k"), []byte("v2"), stamp); err != nil {
			done <- err
			return
		}
		done <- nil
	})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestExecAfterCloseFails: an operation issued on a closed client must come
// back with ErrClosed — on the batching path it used to be put on a closed
// queue, which drops it, and wait for ever on a future nobody would set.
func TestExecAfterCloseFails(t *testing.T) {
	check := func(ctx env.Ctx, client *store.Client) error {
		if _, err := client.Put(ctx, []byte("k"), []byte("v")); err != nil {
			return fmt.Errorf("put before close: %v", err)
		}
		client.Close()
		if _, err := client.Put(ctx, []byte("k"), []byte("v2")); !errors.Is(err, store.ErrClosed) {
			return fmt.Errorf("put after close: %v, want ErrClosed", err)
		}
		if _, _, err := client.Get(ctx, []byte("k")); !errors.Is(err, store.ErrClosed) {
			return fmt.Errorf("get after close: %v, want ErrClosed", err)
		}
		if _, err := client.Scan(ctx, nil, nil, 10, false); !errors.Is(err, store.ErrClosed) {
			return fmt.Errorf("scan after close: %v, want ErrClosed", err)
		}
		return nil
	}
	t.Run("sim", func(t *testing.T) {
		h := newHarness(t, store.ClusterConfig{NumNodes: 2})
		defer h.close()
		h.run(t, func(ctx env.Ctx) {
			if err := check(ctx, h.client); err != nil {
				t.Error(err)
			}
		})
	})
	t.Run("real", func(t *testing.T) {
		envr := env.NewReal(1)
		cl, err := store.NewCluster(envr, transport.NewLocalNet(), store.ClusterConfig{NumNodes: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Manager.Stop()
		pn := envr.NewNode("pn0", 2)
		client := cl.NewClient(pn)
		done := make(chan error, 1)
		pn.Go("test", func(ctx env.Ctx) { done <- check(ctx, client) })
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("operation on a closed client did not return")
		}
	})
}

func TestNodeRejectsMalformedRequests(t *testing.T) {
	// Garbage and unknown-kind frames must produce error responses, not
	// panics or hangs.
	h := newHarness(t, store.ClusterConfig{NumNodes: 1})
	defer h.close()
	h.run(t, func(ctx env.Ctx) {
		conn, err := h.net.Dial(h.pn, "sn0")
		if err != nil {
			t.Fatal(err)
		}
		for _, raw := range [][]byte{
			{0xFF, 0x01, 0x02},                           // unknown kind
			{byte(wire.KindStoreReq)},                    // truncated request
			{byte(wire.KindMetaReq), 99},                 // unknown meta subtype
			{byte(wire.KindReplicate), 0xFF, 0xFF, 0xFF}, // bad replicate
		} {
			resp, err := conn.RoundTrip(ctx, raw)
			if err != nil {
				t.Fatalf("transport error for %v: %v", raw, err)
			}
			if len(resp) == 0 {
				t.Fatalf("empty response for %v", raw)
			}
		}
		// The node still works afterwards.
		if _, err := h.client.Put(ctx, []byte("k"), []byte("v")); err != nil {
			t.Fatalf("put after garbage: %v", err)
		}
	})
}

func TestNodeOpStats(t *testing.T) {
	h := newHarness(t, store.ClusterConfig{NumNodes: 1})
	defer h.close()
	h.run(t, func(ctx env.Ctx) {
		h.client.Put(ctx, []byte("a"), []byte("1"))
		h.client.Get(ctx, []byte("a"))
		h.client.Scan(ctx, []byte("a"), []byte("z"), 0, false)
	})
	gets, writes, scans := h.cluster.Nodes[0].OpStats()
	if gets == 0 || writes == 0 || scans == 0 {
		t.Fatalf("stats: gets=%d writes=%d scans=%d", gets, writes, scans)
	}
}

func TestUnknownOpCodeReturnsError(t *testing.T) {
	h := newHarness(t, store.ClusterConfig{NumNodes: 1})
	defer h.close()
	h.run(t, func(ctx env.Ctx) {
		req := &wire.StoreRequest{Ops: []wire.Op{{Code: 99, Key: []byte("k")}}}
		conn, _ := h.net.Dial(h.pn, "sn0")
		// Encoding an unknown op writes only the code+key, which decodes
		// as an error; the node must answer with StatusError.
		resp, err := conn.RoundTrip(ctx, req.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if wire.PeekKind(resp) != wire.KindStoreResp {
			t.Fatalf("kind %v", wire.PeekKind(resp))
		}
	})
}

// TestStatsSnapshot: after some traffic, a stats request must return a
// snapshot with per-class latency digests (from the attached pipeline) and
// operation counters that reflect the requests served.
func TestStatsSnapshot(t *testing.T) {
	h := newHarness(t, store.ClusterConfig{NumNodes: 1})
	defer h.close()
	h.cluster.Nodes[0].SetObs(obs.New(obs.Config{}, h.envr.Now))
	h.run(t, func(ctx env.Ctx) {
		if _, err := h.client.Put(ctx, []byte("k"), []byte("v")); err != nil {
			t.Fatalf("put: %v", err)
		}
		if _, _, err := h.client.Get(ctx, []byte("k")); err != nil {
			t.Fatalf("get: %v", err)
		}
		conn, _ := h.net.Dial(h.pn, "sn0")
		raw, err := conn.RoundTrip(ctx, wire.EncodeStatsExtReq())
		if err != nil {
			t.Fatal(err)
		}
		snap, err := wire.DecodeStatsExt(raw)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Node != "sn0" || snap.NowNs <= 0 {
			t.Fatalf("snapshot header: %+v", snap)
		}
		var storeCount uint64
		counters := map[string]int64{}
		for _, s := range snap.Series {
			if !s.Hist {
				counters[s.Metric] = s.Total
			} else if s.Metric == "lat/store" {
				storeCount = s.Count
				if s.P99Ns < s.P50Ns || s.P999Ns < s.P99Ns {
					t.Fatalf("inconsistent digest: %+v", s)
				}
			}
		}
		if storeCount < 2 {
			t.Fatalf("store class count %d, want >= 2 (put+get)", storeCount)
		}
		if counters["store/gets"] < 1 || counters["store/writes"] < 1 || counters["store/keys"] < 1 {
			t.Fatalf("counters: %v", counters)
		}
	})
}

func TestOverloadShedsAndRetriesAbsorb(t *testing.T) {
	// A node flooded past its admission bound must shed with
	// StatusOverload rather than queue without bound, and the client's
	// backoff retries must absorb every shed: no operation may fail.
	h := newHarness(t, store.ClusterConfig{NumNodes: 1})
	defer h.close()
	// One op per request and one sender per worker, so the workers
	// produce genuinely concurrent requests; no breaker, so the test
	// isolates the gate-shed / retry-absorb interaction.
	const workers, puts = 16, 5
	h.client.MaxBatch, h.client.Senders = 1, workers
	h.client.Resil.Breakers = nil
	for _, addr := range h.cluster.Addrs() {
		h.cluster.Node(addr).SetAdmission(1, 20*time.Microsecond)
	}
	done := 0
	for w := 0; w < workers; w++ {
		w := w
		h.pn.Go("worker", func(ctx env.Ctx) {
			for i := 0; i < puts; i++ {
				key := []byte(fmt.Sprintf("w%dk%d", w, i))
				if _, err := h.client.Put(ctx, key, []byte("v")); err != nil {
					t.Errorf("put under overload: %v", err)
				}
			}
			done++
			if done == workers {
				h.k.Stop()
			}
		})
	}
	if err := h.k.RunUntil(sim.Time(60 * time.Second)); err != nil {
		t.Fatal(err)
	}
	var sheds uint64
	for _, addr := range h.cluster.Addrs() {
		sheds += h.cluster.Node(addr).Sheds()
	}
	if sheds == 0 {
		t.Fatal("admission gate shed nothing; the flood never hit overload")
	}
}

func TestCircuitOpenRoutesReadsToReplica(t *testing.T) {
	// With the master's circuit breaker open, point reads must route to a
	// synchronous replica instead of failing or waiting out the cooldown.
	h := newHarness(t, store.ClusterConfig{NumNodes: 2, ReplicationFactor: 2})
	defer h.close()
	h.run(t, func(ctx env.Ctx) {
		if _, err := h.client.Put(ctx, []byte("k"), []byte("v")); err != nil {
			t.Errorf("put: %v", err)
			return
		}
		pm, err := h.client.FetchMap(ctx)
		if err != nil {
			t.Errorf("fetch map: %v", err)
			return
		}
		part, ok := pm.LookupKey([]byte("k"))
		if !ok || len(part.Replicas) == 0 {
			t.Errorf("no replica for key (have %+v)", part)
			return
		}
		for i := 0; i < 8; i++ {
			h.client.Resil.Breakers.Failure(part.Master, ctx.Now())
		}
		if !h.client.Resil.Breakers.Open(part.Master, ctx.Now()) {
			t.Error("breaker did not open after consecutive failures")
			return
		}
		val, _, err := h.client.Get(ctx, []byte("k"))
		if err != nil || string(val) != "v" {
			t.Errorf("get with master circuit open = %q, %v", val, err)
		}
	})
}
