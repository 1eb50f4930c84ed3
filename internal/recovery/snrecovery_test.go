package recovery_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"tell/internal/durable"
	"tell/internal/env"
	"tell/internal/recovery"
	"tell/internal/sim"
	"tell/internal/store"
	"tell/internal/testutil"
	"tell/internal/transport"
)

// TestScatterGatherRecovery kills a durable RF1 node and checks the manager
// + SNRecoverer pipeline rebuilds its partitions on the survivors with zero
// acknowledged-write loss.
func TestScatterGatherRecovery(t *testing.T) {
	seed := testutil.Seed(t, 42)
	k := sim.NewKernel(seed)
	defer k.Shutdown()
	envr := env.NewSim(k)
	net := transport.NewSimNet(k, transport.InfiniBand())
	be := durable.NewMem()
	cl, err := store.NewCluster(envr, net, store.ClusterConfig{
		NumNodes:          4,
		PartitionsPerNode: 2,
		ReplicationFactor: 1,
		// Small segments and chunks: the dead node's state spreads over
		// many objects, so all three survivors get recovery work.
		Durable: &store.DurOptions{Backend: be, SegmentBytes: 512, ChunkBytes: 512},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := recovery.NewSNRecoverer(envr, envr.NewNode("rec0", 2), net, be)
	var reported recovery.RecoveryReport
	rec.OnRecovered = func(r recovery.RecoveryReport) { reported = r }
	cl.Manager.Recoverer = rec

	recovered := envr.NewFuture()
	cl.Manager.OnFailover = func(addr string) { recovered.Set(addr) }

	pn := envr.NewNode("pn0", 4)
	client := cl.NewClient(pn)
	type kv struct{ key, val []byte }
	var acked []kv
	ok := false
	pn.Go("driver", func(ctx env.Ctx) {
		defer k.Stop()
		val := bytes.Repeat([]byte("v"), 48)
		for i := 0; i < 200; i++ {
			key := []byte(fmt.Sprintf("key-%04d", i))
			if _, err := client.Put(ctx, key, val); err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
			acked = append(acked, kv{key, val})
		}
		// A mid-stream checkpoint on the victim exercises chunk+segment
		// recovery, not just raw log replay.
		if err := cl.Node("sn0").Checkpoint(ctx); err != nil {
			t.Errorf("checkpoint: %v", err)
			return
		}
		for i := 200; i < 300; i++ {
			key := []byte(fmt.Sprintf("key-%04d", i))
			if _, err := client.Put(ctx, key, val); err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
			acked = append(acked, kv{key, val})
		}

		net.SetDown("sn0", true)
		if _, fin := recovered.GetTimeout(ctx, 5*time.Second); !fin {
			t.Error("failover+recovery never completed")
			return
		}
		// Every acknowledged write must be readable from the recovered
		// cluster — scatter-gather replay lost nothing.
		reader := cl.NewClient(pn)
		for _, w := range acked {
			got, _, err := reader.Get(ctx, w.key)
			if err != nil || !bytes.Equal(got, w.val) {
				t.Errorf("lost acknowledged write %q after recovery: %q %v", w.key, got, err)
				return
			}
		}
		ok = true
	})
	if err := k.RunUntil(sim.Time(600 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if !ok {
		return
	}
	if cl.Manager.Recoveries() != 2 {
		t.Errorf("recovered %d partitions, want 2", cl.Manager.Recoveries())
	}
	if reported.Dead != "sn0" || reported.Records == 0 || reported.Survivors != 3 {
		t.Errorf("unexpected recovery report: %+v", reported)
	}
	if reported.Objects < 3 {
		t.Errorf("expected several recovery objects (small segments), got %d", reported.Objects)
	}
}

// TestRecoverSNNoSurvivors pins the error path.
func TestRecoverSNNoSurvivors(t *testing.T) {
	seed := testutil.Seed(t, 43)
	k := sim.NewKernel(seed)
	defer k.Shutdown()
	envr := env.NewSim(k)
	net := transport.NewSimNet(k, transport.InfiniBand())
	rec := recovery.NewSNRecoverer(envr, envr.NewNode("rec0", 2), net, durable.NewMem())
	n := envr.NewNode("t0", 1)
	n.Go("test", func(ctx env.Ctx) {
		defer k.Stop()
		if _, err := rec.RecoverSN(ctx, "sn9", []uint64{1}, nil); err == nil {
			t.Error("recovery with no survivors must fail")
		}
	})
	if err := k.RunUntil(sim.Time(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
}

// TestScatterGatherRecoveryOfFuzzyChunks is the scatter-gather half of
// store's TestCheckpointFuzzyAcrossChunks: on an S3-profile blob the victim's
// checkpoint releases its lock across every chunk Put while a writer updates,
// inserts and deletes keys all over the key space, so the image the survivors
// replay is stale behind the cursor and doubled ahead of it. After the victim
// dies, handleRecover on the survivors must merge chunks and log suffix into
// exactly what the client was acknowledged.
func TestScatterGatherRecoveryOfFuzzyChunks(t *testing.T) {
	seed := testutil.Seed(t, 44)
	k := sim.NewKernel(seed)
	defer k.Shutdown()
	envr := env.NewSim(k)
	net := transport.NewSimNet(k, transport.InfiniBand())
	be := durable.NewBlob(durable.S3Profile())
	cl, err := store.NewCluster(envr, net, store.ClusterConfig{
		NumNodes:          4,
		PartitionsPerNode: 2,
		ReplicationFactor: 1,
		Durable:           &store.DurOptions{Backend: be, SegmentBytes: 512, ChunkBytes: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 1200
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%04d", i)) }
	model := make(map[string][]byte) // acknowledged state; nil = deleted
	var victims [][]byte             // keys sn0 masters, in key order
	for i := 0; i < keys; i++ {
		val := bytes.Repeat([]byte("v"), 40)
		if err := cl.BulkLoad(key(i), val); err != nil {
			t.Fatal(err)
		}
		model[string(key(i))] = val
		if part, _ := cl.Manager.Map().LookupKey(key(i)); part.Master == "sn0" {
			victims = append(victims, key(i))
		}
	}
	cl.Manager.Recoverer = recovery.NewSNRecoverer(envr, envr.NewNode("rec0", 2), net, be)
	recovered := envr.NewFuture()
	cl.Manager.OnFailover = func(addr string) { recovered.Set(addr) }

	pn := envr.NewNode("pn0", 4)
	client := cl.NewClient(pn)
	duringCkpt := 0
	pn.Go("driver", func(ctx env.Ctx) {
		defer k.Stop()
		// BulkLoad bypasses the log: a first image makes the load durable.
		if err := cl.CheckpointAll(ctx); err != nil {
			t.Errorf("checkpoint: %v", err)
			return
		}
		ckptDone := false
		writerDone := envr.NewFuture()
		pn.Go("writer", func(ctx env.Ctx) {
			defer writerDone.Set(nil)
			for i := 0; !ckptDone; i++ {
				// Stride through the victim's keys so both ends of its
				// memtable are hit before and after the cursor passes.
				k := victims[i*37%len(victims)]
				var err error
				switch i % 3 {
				case 0:
					v := []byte(fmt.Sprintf("upd-%d", i))
					if _, err = client.Put(ctx, k, v); err == nil {
						model[string(k)] = v
					}
				case 1:
					k = append(k[:len(k):len(k)], 'x') // may hash to another node; sn0's share still gets inserts
					if _, err = client.Put(ctx, k, []byte("ins")); err == nil {
						model[string(k)] = []byte("ins")
					}
				default:
					if err = client.Delete(ctx, k, 0); err == nil || err == store.ErrNotFound {
						model[string(k)], err = nil, nil
					}
				}
				if err != nil {
					t.Errorf("writer op %d: %v", i, err)
					return
				}
				duringCkpt++
			}
		})
		if err := cl.Node("sn0").Checkpoint(ctx); err != nil {
			t.Errorf("checkpoint: %v", err)
			return
		}
		ckptDone = true
		writerDone.Get(ctx)

		net.SetDown("sn0", true)
		if _, fin := recovered.GetTimeout(ctx, 5*time.Second); !fin {
			t.Error("failover+recovery never completed")
			return
		}
		reader := cl.NewClient(pn)
		for k, want := range model {
			got, _, err := reader.Get(ctx, []byte(k))
			if want == nil && err == store.ErrNotFound {
				continue
			}
			if err != nil || want == nil || !bytes.Equal(got, want) {
				t.Errorf("key %q after recovery: %q %v, acknowledged %q", k, got, err, want)
				return
			}
		}
	})
	if err := k.RunUntil(sim.Time(600 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if duringCkpt < 30 {
		t.Errorf("only %d writes overlapped the victim's checkpoint; the window never opened", duringCkpt)
	}
}
