package store_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"tell/internal/durable"
	"tell/internal/env"
	"tell/internal/store"
	"tell/internal/wire"
)

// loadCells bulk-loads n value cells (key-%06d → 40 bytes) plus a counter
// every 16th key, straight into the memtable.
func loadCells(t testing.TB, cl *store.Cluster, n int) {
	t.Helper()
	val := bytes.Repeat([]byte("v"), 40)
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("key-%06d", i))
		var err error
		if i%16 == 0 {
			err = cl.BulkLoadCounter(key, int64(i))
		} else {
			err = cl.BulkLoad(key, val)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointAllocsPerChunkNotPerCell is the allocation gate on the
// streaming checkpoint: a checkpoint allocates for its chunks (object name,
// the backend's copy, generation GC), never per memtable cell. The
// materialise-then-chunk checkpoint it replaced allocated twice per cell.
func TestCheckpointAllocsPerChunkNotPerCell(t *testing.T) {
	const cells = 12_000
	be := durable.NewMem()
	h := newHarness(t, store.ClusterConfig{NumNodes: 1, Durable: &store.DurOptions{Backend: be}})
	defer h.close()
	loadCells(t, h.cluster, cells)
	h.run(t, func(ctx env.Ctx) {
		sn := h.cluster.Node("sn0")
		allocs := testing.AllocsPerRun(5, func() {
			if err := sn.Checkpoint(ctx); err != nil {
				t.Errorf("checkpoint: %v", err)
			}
		})
		man, err := durable.LoadCheckpoint(ctx, be, "sn0", func(*wire.Mutation) {})
		if err != nil || man == nil || man.Cells != cells || man.Chunks < 8 {
			t.Fatalf("manifest %+v err=%v, want %d cells over >= 8 chunks", man, err, cells)
		}
		if limit := float64(64 + 16*man.Chunks); allocs > limit {
			t.Errorf("checkpoint of %d cells in %d chunks: %.0f allocations, want <= %.0f (O(chunks), not O(cells))",
				cells, man.Chunks, allocs, limit)
		}
	})
}

// TestCheckpointStreamMatchesDump: the chunk objects a node streams out of
// its memtable are, name for name and byte for byte, the ones the same cells
// produce as a materialised dump — tombstones, counters and a value larger
// than a chunk included. (The durable package pins the dump-fed writer to the
// pre-streaming slice encoder.)
func TestCheckpointStreamMatchesDump(t *testing.T) {
	be := durable.NewMem()
	h := newHarness(t, store.ClusterConfig{
		NumNodes: 1,
		Durable:  &store.DurOptions{Backend: be, ChunkBytes: 300},
	})
	defer h.close()
	loadCells(t, h.cluster, 200)
	h.run(t, func(ctx env.Ctx) {
		sn := h.cluster.Node("sn0")
		for i := 0; i < 200; i += 7 {
			if err := h.client.Delete(ctx, []byte(fmt.Sprintf("key-%06d", i+1)), 0); err != nil {
				t.Fatalf("delete: %v", err)
			}
		}
		if _, err := h.client.CounterAdd(ctx, []byte("key-000016"), -99); err != nil {
			t.Fatalf("counter: %v", err)
		}
		if _, err := h.client.Put(ctx, []byte("key-000100"), bytes.Repeat([]byte("L"), 2000)); err != nil {
			t.Fatalf("put: %v", err)
		}
		if err := sn.Checkpoint(ctx); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		got, err := durable.LoadCheckpoint(ctx, be, "sn0", func(*wire.Mutation) {})
		if err != nil || got == nil {
			t.Fatalf("load: %+v %v", got, err)
		}

		ref := durable.NewMem()
		want := &durable.Manifest{Seq: got.Seq}
		if err := durable.WriteCheckpoint(ctx, ref, "sn0", want, durable.SliceSource(sn.StateDump()), 300); err != nil {
			t.Fatalf("reference checkpoint: %v", err)
		}
		if got.Chunks != want.Chunks || got.Cells != want.Cells || got.Stamp != want.Stamp || got.Chunks < 10 {
			t.Fatalf("manifest %+v, reference %+v", got, want)
		}
		names, _ := ref.List(ctx, "sn0/ckpt/g")
		gotNames, _ := be.List(ctx, "sn0/ckpt/g")
		if fmt.Sprint(names) != fmt.Sprint(gotNames) {
			t.Fatalf("chunk names differ:\n got %v\nwant %v", gotNames, names)
		}
		for _, name := range names {
			a, _ := be.Get(ctx, name)
			b, _ := ref.Get(ctx, name)
			if !bytes.Equal(a, b) {
				t.Errorf("chunk %s: streamed bytes differ from the dump's", name)
			}
		}
	})
}

// chunkPutLog wraps a backend and records every checkpoint chunk Put of ns:
// when it began and the last key in the chunk, which is the checkpoint's
// cursor for as long as that Put keeps sn.mu released.
type chunkPutLog struct {
	durable.Backend
	ns   string
	puts []chunkPut
}

type chunkPut struct {
	start time.Duration
	last  string
}

func (l *chunkPutLog) Put(ctx env.Ctx, name string, data []byte) error {
	if durable.IsChunk(l.ns, name) {
		p := chunkPut{start: ctx.Now()}
		if err := durable.DecodeChunk(data, func(m *wire.Mutation) { p.last = string(m.Key) }); err != nil {
			return err
		}
		l.puts = append(l.puts, p)
	}
	return l.Backend.Put(ctx, name, data)
}

// TestCheckpointFuzzyAcrossChunks opens the window a zero-latency backend
// never does: on an S3-profile blob every chunk Put sleeps with sn.mu
// released, and a concurrent writer updates, inserts and tombstones keys
// behind the cursor (their chunk is already written: the image is stale) and
// ahead of it (a later chunk and the log both carry them). Crash, recover
// from image + log suffix: the state must equal the live node's.
func TestCheckpointFuzzyAcrossChunks(t *testing.T) {
	be := &chunkPutLog{Backend: durable.NewBlob(durable.S3Profile()), ns: "sn0"}
	h := newHarness(t, store.ClusterConfig{
		NumNodes: 1,
		Durable:  &store.DurOptions{Backend: be, SegmentBytes: 512, ChunkBytes: 256},
	})
	defer h.close()
	const cells = 400
	loadCells(t, h.cluster, cells)
	key := func(i int, suffix string) []byte { return []byte(fmt.Sprintf("key-%06d%s", i, suffix)) }

	type op struct {
		sent, acked time.Duration
		key         string
	}
	var ops []op
	h.run(t, func(ctx env.Ctx) {
		sn := h.cluster.Node("sn0")
		ckptDone := false
		writerDone := h.envr.NewFuture()
		h.pn.Go("writer", func(ctx env.Ctx) {
			defer writerDone.Set(nil)
			// Low keys sit in the first chunks, high keys in the last.
			for i := 0; !ckptDone; i++ {
				for _, k := range [][]byte{key(i%10, ""), key(cells-1-i%10, "")} {
					o := op{sent: ctx.Now(), key: string(k)}
					var err error
					switch i % 3 {
					case 0:
						_, err = h.client.Put(ctx, k, []byte(fmt.Sprintf("upd-%d", i)))
					case 1:
						_, err = h.client.Put(ctx, append(k, 'x'), []byte("ins"))
					default:
						err = h.client.Delete(ctx, k, 0)
					}
					if err != nil {
						t.Errorf("writer op %d on %s: %v", i, k, err)
						return
					}
					o.acked = ctx.Now()
					ops = append(ops, o)
				}
			}
		})
		if err := sn.Checkpoint(ctx); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		ckptDone = true
		writerDone.Get(ctx)

		// The writer must have landed acknowledged operations on both sides
		// of the cursor while a chunk Put kept sn.mu released.
		if len(be.puts) < 20 {
			t.Fatalf("checkpoint wrote %d chunks, want >= 20", len(be.puts))
		}
		cursorAt := func(at time.Duration) string {
			c := ""
			for _, p := range be.puts {
				if p.start <= at {
					c = p.last
				}
			}
			return c
		}
		behind, ahead := 0, 0
		for _, o := range ops {
			switch {
			case o.acked > be.puts[len(be.puts)-1].start:
				// Not provably inside the checkpoint.
			case o.key < cursorAt(o.sent):
				behind++
			case o.key > cursorAt(o.acked):
				ahead++
			}
		}
		if behind < 6 || ahead < 6 {
			t.Fatalf("writer landed %d ops behind and %d ahead of the cursor mid-checkpoint, want >= 6 each (%d ops, %d chunks)",
				behind, ahead, len(ops), len(be.puts))
		}

		live := sn.StateDump()
		sn.CrashVolatile(false)
		if _, err := sn.RecoverLocal(ctx); err != nil {
			t.Fatalf("recover: %v", err)
		}
		if got := sn.StateDump(); !dumpEqual(live, got) {
			t.Fatalf("recovered state differs from the live node's: %d vs %d cells", len(got), len(live))
		}
	})
}

// midCheckpoint brings sn0 to the state the two tests below interrupt: 400
// loaded cells in checkpoint generation 1, acknowledged inserts and deletes in
// the log behind it, and generation 2 being written in the background (100
// chunks of 4 cells). The returned future carries that checkpoint's error.
func midCheckpoint(ctx env.Ctx, t *testing.T, h *harness) env.Future {
	sn := h.cluster.Node("sn0")
	if err := sn.Checkpoint(ctx); err != nil {
		t.Fatalf("first checkpoint: %v", err)
	}
	for i := 0; i < 400; i += 9 {
		key := []byte(fmt.Sprintf("key-%06d", i))
		var err error
		if i%2 == 0 {
			_, err = h.client.Put(ctx, append(key, 'x'), []byte("logged"))
		} else {
			err = h.client.Delete(ctx, key, 0)
		}
		if err != nil {
			t.Fatalf("write %s: %v", key, err)
		}
	}
	ckpt := h.envr.NewFuture()
	h.pn.Go("checkpoint", func(ctx env.Ctx) { ckpt.Set(sn.Checkpoint(ctx)) })
	return ckpt
}

// wantAborted waits for the interrupted checkpoint and asserts it gave up
// before its manifest: installing one would garbage-collect generation 1 and
// truncate the log under a partial image.
func wantAborted(ctx env.Ctx, t *testing.T, be durable.Backend, ckpt env.Future) {
	t.Helper()
	if err, _ := ckpt.Get(ctx).(error); err == nil {
		t.Error("checkpoint completed across a memtable swap, want it aborted")
	}
	man, err := durable.LoadCheckpoint(ctx, be, "sn0", func(*wire.Mutation) {})
	if err != nil || man == nil || man.Seq != 1 || man.Cells != 400 {
		t.Fatalf("manifest %+v err=%v, want generation 1 and its 400 cells left in place", man, err)
	}
}

func wantRecovers(ctx env.Ctx, t *testing.T, sn *store.Node, want []wire.Mutation) {
	t.Helper()
	if _, err := sn.RecoverLocal(ctx); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if got := sn.StateDump(); !dumpEqual(want, got) {
		t.Fatalf("recovered %d cells, the node held %d before the crash", len(got), len(want))
	}
}

func midCheckpointHarness(t *testing.T, be durable.Backend) *harness {
	h := newHarness(t, store.ClusterConfig{
		NumNodes: 1,
		Durable:  &store.DurOptions{Backend: be, SegmentBytes: 512, ChunkBytes: 256},
	})
	loadCells(t, h.cluster, 400)
	return h
}

// TestCheckpointAbortsOnCrash: on an S3-profile blob the process is killed
// about ten chunk Puts into a checkpoint and restarts once the checkpoint
// activity has run to its end. Resuming the cursor on the crash's empty
// memtable would end the image there, install it, and lose every
// acknowledged cell past the cursor.
func TestCheckpointAbortsOnCrash(t *testing.T) {
	be := durable.NewBlob(durable.S3Profile())
	h := midCheckpointHarness(t, be)
	defer h.close()
	h.run(t, func(ctx env.Ctx) {
		sn := h.cluster.Node("sn0")
		ckpt := midCheckpoint(ctx, t, h)
		ctx.Sleep(10 * time.Millisecond)
		want := sn.StateDump()
		sn.CrashVolatile(false)
		wantAborted(ctx, t, be, ckpt)
		wantRecovers(ctx, t, sn, want)
	})
}

// chunkGate parks the Put of one named object until release is set, and
// reports on reached that it has.
type chunkGate struct {
	durable.Backend
	name             string
	reached, release env.Future
}

func (g *chunkGate) Put(ctx env.Ctx, name string, data []byte) error {
	if name == g.name {
		g.reached.Set(nil)
		g.release.Get(ctx)
	}
	return g.Backend.Put(ctx, name, data)
}

// TestCheckpointAbortsOnRecovery: the crash and the whole local recovery fit
// inside one chunk Put, so when the checkpoint resumes the node is up again
// and serving — on a different memtable. Its next chunk must not come from
// there: the image would be stitched from two incarnations.
func TestCheckpointAbortsOnRecovery(t *testing.T) {
	be := &chunkGate{Backend: durable.NewMem(), name: "sn0/ckpt/g0000000002/chunk-000005"}
	h := midCheckpointHarness(t, be)
	defer h.close()
	be.reached, be.release = h.envr.NewFuture(), h.envr.NewFuture()
	h.run(t, func(ctx env.Ctx) {
		sn := h.cluster.Node("sn0")
		ckpt := midCheckpoint(ctx, t, h)
		be.reached.Get(ctx)
		want := sn.StateDump()
		sn.CrashVolatile(false)
		wantRecovers(ctx, t, sn, want)
		sn.Configure(h.cluster.Manager.Map())
		if _, err := h.client.Put(ctx, []byte("key-000399y"), []byte("second life")); err != nil {
			t.Fatalf("put after recovery: %v", err)
		}
		be.release.Set(nil)
		wantAborted(ctx, t, be, ckpt)

		want = sn.StateDump()
		sn.CrashVolatile(false)
		wantRecovers(ctx, t, sn, want)
	})
}

// BenchmarkCheckpoint measures one fuzzy checkpoint of a 100k-cell memtable
// on the zero-latency backend: host time and heap per cell, allocations per
// checkpoint.
func BenchmarkCheckpoint(b *testing.B) {
	const cells = 100_000
	h := newHarness(b, store.ClusterConfig{NumNodes: 1, Durable: &store.DurOptions{Backend: durable.NewMem()}})
	defer h.close()
	loadCells(b, h.cluster, cells)
	h.run(b, func(ctx env.Ctx) {
		sn := h.cluster.Node("sn0")
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sn.Checkpoint(ctx); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		perCell := float64(b.N) * cells
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perCell, "ns/cell")
		b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/perCell, "B/cell")
	})
}
