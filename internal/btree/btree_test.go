package btree_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"tell/internal/btree"
	"tell/internal/env"
	"tell/internal/sim"
	"tell/internal/store"
	"tell/internal/testutil"
	"tell/internal/transport"
)

type treeHarness struct {
	k       *sim.Kernel
	envr    env.Full
	net     *transport.SimNet
	cluster *store.Cluster
	pn      env.Node
	client  *store.Client
}

func newTreeHarness(t *testing.T, nodes int) *treeHarness {
	t.Helper()
	k := sim.NewKernel(testutil.Seed(t, 11))
	envr := env.NewSim(k)
	net := transport.NewSimNet(k, transport.InfiniBand())
	cl, err := store.NewCluster(envr, net, store.ClusterConfig{NumNodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	pn := envr.NewNode("pn0", 4)
	return &treeHarness{k: k, envr: envr, net: net, cluster: cl, pn: pn, client: cl.NewClient(pn)}
}

func (h *treeHarness) run(t *testing.T, fn func(ctx env.Ctx)) {
	t.Helper()
	done := false
	h.pn.Go("test", func(ctx env.Ctx) {
		fn(ctx)
		done = true
		h.k.Stop()
	})
	if err := h.k.RunUntil(sim.Time(3000 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("test activity did not finish")
	}
	h.k.Shutdown()
}

func key(i int) []byte { return []byte(fmt.Sprintf("k%06d", i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("v%d", i)) }

func TestInsertLookupSmall(t *testing.T) {
	h := newTreeHarness(t, 2)
	h.run(t, func(ctx env.Ctx) {
		if err := btree.Create(ctx, "t", h.client); err != nil {
			t.Fatal(err)
		}
		tr := btree.New("t", h.client)
		for i := 0; i < 10; i++ {
			existed, err := tr.Insert(ctx, key(i), val(i))
			if err != nil || existed {
				t.Fatalf("insert %d: existed=%v err=%v", i, existed, err)
			}
		}
		// Duplicate insert reports existed.
		existed, err := tr.Insert(ctx, key(3), []byte("other"))
		if err != nil || !existed {
			t.Fatalf("dup insert: existed=%v err=%v", existed, err)
		}
		for i := 0; i < 10; i++ {
			v, ok, err := tr.Lookup(ctx, key(i))
			if err != nil || !ok || !bytes.Equal(v, val(i)) {
				t.Fatalf("lookup %d: %q %v %v", i, v, ok, err)
			}
		}
		if _, ok, _ := tr.Lookup(ctx, []byte("nope")); ok {
			t.Fatal("phantom key found")
		}
	})
}

func TestInsertCausesSplitsAndStaysConsistent(t *testing.T) {
	h := newTreeHarness(t, 3)
	h.run(t, func(ctx env.Ctx) {
		btree.Create(ctx, "t", h.client)
		tr := btree.New("t", h.client)
		tr.MaxKeys = 8 // force deep trees quickly
		const n = 500
		perm := rand.New(rand.NewSource(1)).Perm(n)
		for _, i := range perm {
			if _, err := tr.Insert(ctx, key(i), val(i)); err != nil {
				t.Fatalf("insert %d: %v", i, err)
			}
		}
		for i := 0; i < n; i++ {
			v, ok, err := tr.Lookup(ctx, key(i))
			if err != nil || !ok || !bytes.Equal(v, val(i)) {
				t.Fatalf("lookup %d after splits: %v %v", i, ok, err)
			}
		}
		// Full scan returns everything in order.
		var got []string
		if err := tr.Scan(ctx, nil, nil, func(k, v []byte) bool {
			got = append(got, string(k))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("scan returned %d keys, want %d", len(got), n)
		}
		if !sort.StringsAreSorted(got) {
			t.Fatal("scan out of order")
		}
	})
}

func TestUpdateAndDelete(t *testing.T) {
	h := newTreeHarness(t, 2)
	h.run(t, func(ctx env.Ctx) {
		btree.Create(ctx, "t", h.client)
		tr := btree.New("t", h.client)
		tr.MaxKeys = 8
		for i := 0; i < 100; i++ {
			tr.Insert(ctx, key(i), val(i))
		}
		ok, err := tr.Update(ctx, key(42), []byte("updated"))
		if err != nil || !ok {
			t.Fatalf("update: %v %v", ok, err)
		}
		v, _, _ := tr.Lookup(ctx, key(42))
		if string(v) != "updated" {
			t.Fatalf("value = %q", v)
		}
		if ok, _ := tr.Update(ctx, []byte("ghost"), nil); ok {
			t.Fatal("update of missing key reported ok")
		}
		// Delete half the keys.
		for i := 0; i < 100; i += 2 {
			ok, err := tr.Delete(ctx, key(i))
			if err != nil || !ok {
				t.Fatalf("delete %d: %v %v", i, ok, err)
			}
		}
		if ok, _ := tr.Delete(ctx, key(2)); ok {
			t.Fatal("double delete reported ok")
		}
		for i := 0; i < 100; i++ {
			_, ok, _ := tr.Lookup(ctx, key(i))
			if want := i%2 == 1; ok != want {
				t.Fatalf("key %d present=%v want %v", i, ok, want)
			}
		}
	})
}

func TestScanRange(t *testing.T) {
	h := newTreeHarness(t, 2)
	h.run(t, func(ctx env.Ctx) {
		btree.Create(ctx, "t", h.client)
		tr := btree.New("t", h.client)
		tr.MaxKeys = 8
		for i := 0; i < 200; i++ {
			tr.Insert(ctx, key(i), val(i))
		}
		var got []string
		tr.Scan(ctx, key(50), key(60), func(k, v []byte) bool {
			got = append(got, string(k))
			return true
		})
		if len(got) != 10 || got[0] != string(key(50)) || got[9] != string(key(59)) {
			t.Fatalf("got %v", got)
		}
		// Early termination.
		n := 0
		tr.Scan(ctx, key(0), nil, func(k, v []byte) bool {
			n++
			return n < 7
		})
		if n != 7 {
			t.Fatalf("early stop at %d", n)
		}
	})
}

func TestConcurrentInsertsFromMultiplePNs(t *testing.T) {
	// The latch-free property: several PNs (each with its own Tree handle
	// and cache) insert concurrently; every key must be found afterwards.
	h := newTreeHarness(t, 3)
	const pns = 4
	const perPN = 150
	done := 0
	var trees []*btree.Tree
	setup := false
	h.pn.Go("create", func(ctx env.Ctx) {
		btree.Create(ctx, "t", h.client)
		setup = true
	})
	for p := 0; p < pns; p++ {
		p := p
		node := h.envr.NewNode(fmt.Sprintf("pn%d", p+1), 4)
		client := h.cluster.NewClient(node)
		tr := btree.New("t", client)
		tr.MaxKeys = 8
		trees = append(trees, tr)
		node.Go("inserter", func(ctx env.Ctx) {
			for !setup {
				ctx.Sleep(time.Millisecond)
			}
			for i := 0; i < perPN; i++ {
				k := key(p*perPN + i)
				if _, err := tr.Insert(ctx, k, val(i)); err != nil {
					t.Errorf("pn%d insert %d: %v", p, i, err)
					break
				}
			}
			done++
		})
	}
	h.pn.Go("checker", func(ctx env.Ctx) {
		for done < pns {
			ctx.Sleep(time.Millisecond)
		}
		// Verify through a fresh handle (no warm cache).
		verify := btree.New("t", h.client)
		for i := 0; i < pns*perPN; i++ {
			_, ok, err := verify.Lookup(ctx, key(i))
			if err != nil || !ok {
				t.Errorf("key %d missing after concurrent inserts: %v", i, err)
			}
		}
		count := 0
		verify.Scan(ctx, nil, nil, func(k, v []byte) bool {
			count++
			return true
		})
		if count != pns*perPN {
			t.Errorf("scan count %d, want %d", count, pns*perPN)
		}
		h.k.Stop()
	})
	if err := h.k.RunUntil(sim.Time(3000 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if done != pns {
		t.Fatalf("only %d/%d inserters finished", done, pns)
	}
	h.k.Shutdown()
}

func TestConcurrentSameKeyInsertOnlyOneWins(t *testing.T) {
	h := newTreeHarness(t, 2)
	const pns = 4
	existedCount, insertedCount := 0, 0
	done := 0
	setup := false
	h.pn.Go("create", func(ctx env.Ctx) {
		btree.Create(ctx, "t", h.client)
		setup = true
	})
	for p := 0; p < pns; p++ {
		node := h.envr.NewNode(fmt.Sprintf("pn%d", p+1), 2)
		tr := btree.New("t", h.cluster.NewClient(node))
		node.Go("racer", func(ctx env.Ctx) {
			for !setup {
				ctx.Sleep(time.Millisecond)
			}
			existed, err := tr.Insert(ctx, []byte("contended"), []byte("x"))
			if err != nil {
				t.Errorf("insert: %v", err)
			} else if existed {
				existedCount++
			} else {
				insertedCount++
			}
			done++
			if done == pns {
				h.k.Stop()
			}
		})
	}
	if err := h.k.RunUntil(sim.Time(60 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if insertedCount != 1 || existedCount != pns-1 {
		t.Fatalf("inserted=%d existed=%d", insertedCount, existedCount)
	}
	h.k.Shutdown()
}

func TestInnerNodeCachingReducesReads(t *testing.T) {
	h := newTreeHarness(t, 2)
	h.run(t, func(ctx env.Ctx) {
		btree.Create(ctx, "t", h.client)
		loader := btree.New("t", h.client)
		loader.MaxKeys = 8
		for i := 0; i < 300; i++ {
			loader.Insert(ctx, key(i), val(i))
		}
		lookups := func(cache bool) (reads uint64) {
			tr := btree.New("t", h.cluster.NewClient(h.pn))
			tr.CacheInner = cache
			for i := 0; i < 200; i++ {
				if _, ok, err := tr.Lookup(ctx, key(i%300)); !ok || err != nil {
					t.Fatalf("lookup: %v %v", ok, err)
				}
			}
			r, _ := tr.Stats()
			return r
		}
		withCache := lookups(true)
		withoutCache := lookups(false)
		if withCache >= withoutCache {
			t.Fatalf("caching did not reduce reads: %d >= %d", withCache, withoutCache)
		}
		t.Logf("store reads: cached=%d uncached=%d", withCache, withoutCache)
	})
}

func TestCacheStaysCorrectAcrossRemoteSplits(t *testing.T) {
	// PN A warms its cache, PN B splits nodes; A's reads must stay correct
	// via right-moves and parent refreshes (§5.3.1).
	h := newTreeHarness(t, 2)
	h.run(t, func(ctx env.Ctx) {
		btree.Create(ctx, "t", h.client)
		a := btree.New("t", h.client)
		a.MaxKeys = 8
		for i := 0; i < 50; i++ {
			a.Insert(ctx, key(i*10), val(i*10)) // sparse keys
		}
		// Warm A's cache.
		for i := 0; i < 50; i++ {
			a.Lookup(ctx, key(i*10))
		}
		// B inserts many keys between A's, splitting leaves A knows.
		nodeB := h.envr.NewNode("pnB", 4)
		b := btree.New("t", h.cluster.NewClient(nodeB))
		b.MaxKeys = 8
		for i := 0; i < 500; i++ {
			if _, err := b.Insert(ctx, key(i), val(i)); err != nil {
				t.Fatalf("b insert: %v", err)
			}
		}
		// A (with its stale cache) must see everything.
		for i := 0; i < 500; i++ {
			v, ok, err := a.Lookup(ctx, key(i))
			if err != nil || !ok || !bytes.Equal(v, val(i)) {
				t.Fatalf("stale-cache lookup %d: %v %v", i, ok, err)
			}
		}
	})
}

func TestBulkBuildMatchesInsertedTree(t *testing.T) {
	h := newTreeHarness(t, 3)
	const n = 400
	at := func(i int) ([]byte, []byte) { return key(i), val(i) }
	err := btree.BulkBuild("bulk", n, at, 16, h.cluster.BulkLoad, h.cluster.BulkLoadCounter)
	if err != nil {
		t.Fatal(err)
	}
	h.run(t, func(ctx env.Ctx) {
		tr := btree.New("bulk", h.client)
		tr.MaxKeys = 16
		for i := 0; i < n; i++ {
			v, ok, err := tr.Lookup(ctx, key(i))
			if err != nil || !ok || !bytes.Equal(v, val(i)) {
				t.Fatalf("lookup %d: %v %v", i, ok, err)
			}
		}
		// The bulk-built tree supports normal inserts (ids must not
		// collide with preallocated nodes).
		for i := n; i < n+100; i++ {
			if _, err := tr.Insert(ctx, key(i), val(i)); err != nil {
				t.Fatalf("post-bulk insert %d: %v", i, err)
			}
		}
		count := 0
		tr.Scan(ctx, nil, nil, func(k, v []byte) bool { count++; return true })
		if count != n+100 {
			t.Fatalf("scan count %d, want %d", count, n+100)
		}
	})
}

func TestBulkBuildRejectsUnsortedInput(t *testing.T) {
	keys := [][]byte{[]byte("b"), []byte("a")}
	err := btree.BulkBuild("x", len(keys), func(i int) ([]byte, []byte) { return keys[i], nil }, 16,
		func(k, v []byte) error { return nil },
		func(k []byte, v int64) error { return nil })
	if err == nil {
		t.Fatal("unsorted input accepted")
	}
}

func TestBulkBuildEmpty(t *testing.T) {
	h := newTreeHarness(t, 1)
	if err := btree.BulkBuild("empty", 0, nil, 16, h.cluster.BulkLoad, h.cluster.BulkLoadCounter); err != nil {
		t.Fatal(err)
	}
	h.run(t, func(ctx env.Ctx) {
		tr := btree.New("empty", h.client)
		if _, ok, err := tr.Lookup(ctx, []byte("k")); ok || err != nil {
			t.Fatalf("lookup on empty: %v %v", ok, err)
		}
		if _, err := tr.Insert(ctx, []byte("k"), []byte("v")); err != nil {
			t.Fatalf("insert into empty bulk tree: %v", err)
		}
	})
}

// TestTreePropertyRandomOpsAgainstMap runs randomized operations against a
// reference map.
func TestTreePropertyRandomOpsAgainstMap(t *testing.T) {
	h := newTreeHarness(t, 2)
	h.run(t, func(ctx env.Ctx) {
		btree.Create(ctx, "t", h.client)
		tr := btree.New("t", h.client)
		tr.MaxKeys = 8
		rng := rand.New(rand.NewSource(99))
		ref := make(map[string]string)
		for step := 0; step < 1500; step++ {
			i := rng.Intn(300)
			k := key(i)
			switch rng.Intn(4) {
			case 0, 1:
				v := fmt.Sprintf("v%d-%d", i, step)
				if _, ok := ref[string(k)]; ok {
					tr.Update(ctx, k, []byte(v))
				} else if _, err := tr.Insert(ctx, k, []byte(v)); err != nil {
					t.Fatalf("insert: %v", err)
				}
				ref[string(k)] = v
			case 2:
				ok, err := tr.Delete(ctx, k)
				if err != nil {
					t.Fatalf("delete: %v", err)
				}
				if _, inRef := ref[string(k)]; inRef != ok {
					t.Fatalf("delete presence mismatch for %s", k)
				}
				delete(ref, string(k))
			case 3:
				v, ok, err := tr.Lookup(ctx, k)
				if err != nil {
					t.Fatalf("lookup: %v", err)
				}
				want, inRef := ref[string(k)]
				if ok != inRef || (ok && string(v) != want) {
					t.Fatalf("lookup mismatch for %s: got %q/%v want %q/%v", k, v, ok, want, inRef)
				}
			}
		}
		// Final full comparison via scan.
		got := make(map[string]string)
		tr.Scan(ctx, nil, nil, func(k, v []byte) bool {
			got[string(k)] = string(v)
			return true
		})
		if len(got) != len(ref) {
			t.Fatalf("scan size %d, ref %d", len(got), len(ref))
		}
		for k, v := range ref {
			if got[k] != v {
				t.Fatalf("mismatch at %s: %q != %q", k, got[k], v)
			}
		}
	})
}

// TestRootGrowthRaceSweep splits a fresh tree's root leaf from two handles
// at once while one network message at a time is delayed by 5 ms. A writer
// whose split needs a parent level that another writer's root growth has
// not yet installed must wait for it, not fail; every key must end up in
// the tree. The sweep covers every message index of an undisturbed run.
func TestRootGrowthRaceSweep(t *testing.T) {
	const perHandle = 12
	// run inserts with the delayAt-th message leg delayed (-1: none) and
	// returns the number of legs sent and the first failure.
	run := func(delayAt int) (legs int, failure string) {
		h := newTreeHarness(t, 2)
		h.net.SetFaultFn(func(src, dst string, payload []byte) transport.Fault {
			legs++
			if legs-1 == delayAt {
				return transport.Fault{Delay: 5 * time.Millisecond}
			}
			return transport.Fault{}
		})
		setup, done := false, 0
		h.pn.Go("create", func(ctx env.Ctx) {
			if err := btree.Create(ctx, "t", h.client); err != nil {
				failure = err.Error()
			}
			setup = true
		})
		for p := 0; p < 2; p++ {
			node := h.envr.NewNode(fmt.Sprintf("pn%d", p+1), 2)
			tr := btree.New("t", h.cluster.NewClient(node))
			tr.MaxKeys = 3
			node.Go("inserter", func(ctx env.Ctx) {
				for !setup {
					ctx.Sleep(time.Microsecond)
				}
				for i := 0; i < perHandle; i++ {
					if _, err := tr.Insert(ctx, key(2*i+p), val(i)); err != nil && failure == "" {
						failure = fmt.Sprintf("handle %d insert %d: %v", p, i, err)
					}
				}
				done++
			})
		}
		h.pn.Go("checker", func(ctx env.Ctx) {
			for done < 2 {
				ctx.Sleep(time.Millisecond)
			}
			verify := btree.New("t", h.client)
			for i := 0; i < 2*perHandle && failure == ""; i++ {
				if _, ok, err := verify.Lookup(ctx, key(i)); err != nil || !ok {
					failure = fmt.Sprintf("key %d missing: %v", i, err)
				}
			}
			h.k.Stop()
		})
		if err := h.k.RunUntil(sim.Time(60 * time.Second)); err != nil {
			t.Fatal(err)
		}
		if done != 2 && failure == "" {
			failure = "inserters did not finish"
		}
		h.k.Shutdown()
		return legs, failure
	}
	legs, failure := run(-1)
	if failure != "" {
		t.Fatalf("undisturbed run: %s", failure)
	}
	for at := 0; at < legs; at++ {
		if _, failure := run(at); failure != "" {
			t.Fatalf("message %d of %d delayed by 5 ms: %s", at, legs, failure)
		}
	}
}

// TestConcurrentOverlappingInsertMany runs batched inserts with overlapping
// key sets from two handles at once: every key must end up in the tree
// exactly once, inserted by exactly one of them.
func TestConcurrentOverlappingInsertMany(t *testing.T) {
	h := newTreeHarness(t, 2)
	const batches, perBatch = 3, 20
	inserted := map[int]int{}
	setup, done := false, 0
	h.pn.Go("create", func(ctx env.Ctx) {
		btree.Create(ctx, "t", h.client)
		setup = true
	})
	for p := 0; p < 2; p++ {
		node := h.envr.NewNode(fmt.Sprintf("pn%d", p+1), 2)
		tr := btree.New("t", h.cluster.NewClient(node))
		tr.MaxKeys = 8
		node.Go("batcher", func(ctx env.Ctx) {
			for !setup {
				ctx.Sleep(time.Microsecond)
			}
			// Handle 0 covers keys 0..59, handle 1 keys 30..89, each in
			// three batches given in descending key order.
			for b := 0; b < batches; b++ {
				var ids []int
				var keys, vals [][]byte
				for i := perBatch - 1; i >= 0; i-- {
					id := p*batches*perBatch/2 + b*perBatch + i
					ids = append(ids, id)
					keys, vals = append(keys, key(id)), append(vals, val(id))
				}
				existed, err := tr.InsertMany(ctx, keys, vals)
				if err != nil {
					t.Errorf("handle %d batch %d: %v", p, b, err)
					break
				}
				for j, ex := range existed {
					if !ex {
						inserted[ids[j]]++
					}
				}
			}
			done++
		})
	}
	h.pn.Go("checker", func(ctx env.Ctx) {
		for done < 2 {
			ctx.Sleep(time.Millisecond)
		}
		const keys = 90
		var got []string
		btree.New("t", h.client).Scan(ctx, nil, nil, func(k, v []byte) bool {
			got = append(got, string(k))
			return true
		})
		if len(got) != keys {
			t.Errorf("scan returned %d keys, want %d", len(got), keys)
		}
		for i := 0; i < keys; i++ {
			if i < len(got) && got[i] != string(key(i)) {
				t.Errorf("scan position %d: %s, want %s", i, got[i], key(i))
			}
			if inserted[i] != 1 {
				t.Errorf("key %d reported inserted %d times", i, inserted[i])
			}
		}
		h.k.Stop()
	})
	if err := h.k.RunUntil(sim.Time(60 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if done != 2 {
		t.Fatalf("only %d/2 batchers finished", done)
	}
	h.k.Shutdown()
}

// TestInsertManyWritesLeafOnce inserts a 10-entry batch into one leaf that
// has room for it: the batch must cost exactly one store write, the leaf's
// conditional put, where ten Inserts cost ten.
func TestInsertManyWritesLeafOnce(t *testing.T) {
	h := newTreeHarness(t, 2)
	writes := func() (n uint64) {
		for _, addr := range h.cluster.Addrs() {
			_, w, _ := h.cluster.Node(addr).OpStats()
			n += w
		}
		return n
	}
	h.run(t, func(ctx env.Ctx) {
		if err := btree.Create(ctx, "t", h.client); err != nil {
			t.Fatal(err)
		}
		tr := btree.New("t", h.client)
		for i := 0; i < 5; i++ {
			if _, err := tr.Insert(ctx, key(2*i), val(i)); err != nil {
				t.Fatal(err)
			}
		}
		var keys, vals [][]byte
		for i := 0; i < 10; i++ {
			keys, vals = append(keys, key(2*i+1)), append(vals, val(i))
		}
		before := writes()
		existed, err := tr.InsertMany(ctx, keys, vals)
		if err != nil {
			t.Fatal(err)
		}
		if n := writes() - before; n != 1 {
			t.Fatalf("10-entry batch into one leaf issued %d store writes, want 1", n)
		}
		for j, ex := range existed {
			if ex {
				t.Fatalf("entry %d reported existing", j)
			}
		}
		for i := 0; i < 20; i++ {
			if _, ok, err := tr.Lookup(ctx, key(i)); err != nil || ok != (i < 10 || i%2 == 1) {
				t.Fatalf("key %d: found=%v err=%v", i, ok, err)
			}
		}
	})
}
