package durable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"tell/internal/env"
	"tell/internal/sim"
	"tell/internal/testutil"
	"tell/internal/wire"
)

// runSim executes fn inside a one-node simulation so backend calls have a
// virtual-time ctx to charge against.
func runSim(t *testing.T, seed int64, fn func(ctx env.Ctx)) {
	t.Helper()
	k := sim.NewKernel(seed)
	defer k.Shutdown()
	envr := env.NewSim(k)
	n := envr.NewNode("test", 2)
	n.Go("main", func(ctx env.Ctx) {
		defer k.Stop()
		fn(ctx)
	})
	if err := k.RunUntil(sim.Time(3000 * time.Second)); err != nil {
		t.Fatal(err)
	}
}

func mut(key, val string, stamp uint64) wire.Mutation {
	return wire.Mutation{Key: []byte(key), Val: []byte(val), Stamp: stamp}
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{LSN: 1, Part: 0, Mut: mut("a", "1", 10)},
		{LSN: 2, Part: 3, Mut: wire.Mutation{Key: []byte("c"), Counter: true, CtrVal: -7, Stamp: 11}},
		{LSN: 3, Part: 3, Mut: wire.Mutation{Key: []byte("d"), Deleted: true, Stamp: 12}},
		{LSN: 4, Part: 1, Mut: mut("e", "", 13)},
	}
	var buf []byte
	for i := range recs {
		buf = AppendRecord(buf, &recs[i])
	}
	var got []Record
	n, err := DecodeSegment(buf, func(r *Record) { got = append(got, *r) })
	if err != nil || n != len(buf) {
		t.Fatalf("DecodeSegment: n=%d err=%v", n, err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].LSN != recs[i].LSN || got[i].Part != recs[i].Part ||
			!bytes.Equal(got[i].Mut.Key, recs[i].Mut.Key) ||
			!bytes.Equal(got[i].Mut.Val, recs[i].Mut.Val) ||
			got[i].Mut.Stamp != recs[i].Mut.Stamp ||
			got[i].Mut.Deleted != recs[i].Mut.Deleted ||
			got[i].Mut.Counter != recs[i].Mut.Counter ||
			got[i].Mut.CtrVal != recs[i].Mut.CtrVal {
			t.Fatalf("record %d mismatch: %+v != %+v", i, got[i], recs[i])
		}
	}
}

func TestRecordTornAndCorrupt(t *testing.T) {
	rec := Record{LSN: 9, Part: 2, Mut: mut("key", "value", 44)}
	frame := AppendRecord(nil, &rec)

	// Every strict prefix is a torn write, never corruption.
	for cut := 0; cut < len(frame); cut++ {
		_, _, err := DecodeRecord(frame[:cut])
		if cut == 0 {
			if !IsTorn(err) {
				t.Fatalf("cut 0: want torn, got %v", err)
			}
			continue
		}
		if !IsTorn(err) {
			t.Fatalf("cut %d: want torn, got %v", cut, err)
		}
	}

	// Bad magic.
	bad := append([]byte(nil), frame...)
	bad[0] ^= 0xff
	if _, _, err := DecodeRecord(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: want ErrCorrupt, got %v", err)
	}
	// Flipped payload byte fails the checksum.
	bad = append([]byte(nil), frame...)
	bad[len(bad)-1] ^= 0x01
	if _, _, err := DecodeRecord(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("payload flip: want ErrCorrupt, got %v", err)
	}
}

func TestWALCommitReplayRoll(t *testing.T) {
	seed := testutil.Seed(t, 101)
	runSim(t, seed, func(ctx env.Ctx) {
		be := NewMem()
		w := OpenWAL(be, "sn0", WALConfig{SegmentBytes: 64}, 0, 1)
		var want []Record
		for b := 0; b < 10; b++ {
			batch := []Record{
				{Part: 1, Mut: mut(fmt.Sprintf("k%02d", b), "v", uint64(b)*2+1)},
				{Part: 2, Mut: mut(fmt.Sprintf("j%02d", b), "w", uint64(b)*2+2)},
			}
			if err := w.Commit(ctx, batch); err != nil {
				t.Errorf("commit %d: %v", b, err)
				return
			}
			want = append(want, batch...)
		}
		names, _ := be.List(ctx, "sn0/wal/")
		if len(names) < 3 {
			t.Errorf("expected multiple segments after rolling, got %v", names)
		}

		var got []Record
		st, err := ReplayWAL(ctx, be, "sn0", 0, func(r *Record) { got = append(got, *r) })
		if err != nil {
			t.Errorf("replay: %v", err)
			return
		}
		if st.Torn {
			t.Error("unexpected torn tail")
		}
		if len(got) != len(want) {
			t.Errorf("replayed %d records, want %d", len(got), len(want))
			return
		}
		for i := range got {
			if got[i].LSN != uint64(i+1) {
				t.Errorf("record %d: lsn %d, want %d", i, got[i].LSN, i+1)
			}
			if !bytes.Equal(got[i].Mut.Key, want[i].Mut.Key) {
				t.Errorf("record %d: key %q, want %q", i, got[i].Mut.Key, want[i].Mut.Key)
			}
		}
		if st.MaxLSN != uint64(len(want)) || st.MaxStamp != 20 {
			t.Errorf("stats: %+v", st)
		}

		// A reopened WAL appends past the old tail; replay sees both eras.
		w2 := OpenWAL(be, "sn0", WALConfig{SegmentBytes: 64}, st.NextSeg, st.MaxLSN+1)
		if err := w2.Commit(ctx, []Record{{Part: 1, Mut: mut("zz", "post", 99)}}); err != nil {
			t.Errorf("commit after reopen: %v", err)
		}
		n := 0
		st2, err := ReplayWAL(ctx, be, "sn0", 0, func(r *Record) { n++ })
		if err != nil || n != len(want)+1 || st2.MaxLSN != st.MaxLSN+1 {
			t.Errorf("replay after reopen: n=%d err=%v stats=%+v", n, err, st2)
		}
	})
}

func TestWALTornTailOnlyFinalSegment(t *testing.T) {
	seed := testutil.Seed(t, 102)
	runSim(t, seed, func(ctx env.Ctx) {
		be := NewMem()
		full := AppendRecord(nil, &Record{LSN: 1, Part: 0, Mut: mut("a", "1", 1)})
		full = AppendRecord(full, &Record{LSN: 2, Part: 0, Mut: mut("b", "2", 2)})
		torn := full[:len(full)-3]

		// Torn tail on the final segment: tolerated, reported.
		be.Put(ctx, segName("sn0", 0), full)
		be.Put(ctx, segName("sn0", 1), torn)
		n := 0
		st, err := ReplayWAL(ctx, be, "sn0", 0, func(*Record) { n++ })
		if err != nil {
			t.Errorf("final-segment torn tail should be tolerated: %v", err)
		}
		if !st.Torn || n != 3 {
			t.Errorf("want torn=true n=3, got torn=%v n=%d", st.Torn, n)
		}

		// The same cut mid-log is an error: a non-final segment cannot
		// legitimately end in a partial frame.
		be2 := NewMem()
		be2.Put(ctx, segName("sn0", 0), torn)
		be2.Put(ctx, segName("sn0", 1), full)
		if _, err := ReplayWAL(ctx, be2, "sn0", 0, func(*Record) {}); err == nil {
			t.Error("torn frame in non-final segment must fail replay")
		}

		// Corruption is an error even on the final segment.
		be3 := NewMem()
		crpt := append([]byte(nil), full...)
		crpt[len(crpt)-1] ^= 0x40
		be3.Put(ctx, segName("sn0", 0), crpt)
		if _, err := ReplayWAL(ctx, be3, "sn0", 0, func(*Record) {}); !errors.Is(err, ErrCorrupt) {
			t.Errorf("want ErrCorrupt, got %v", err)
		}
	})
}

func TestWALTruncateBefore(t *testing.T) {
	seed := testutil.Seed(t, 103)
	runSim(t, seed, func(ctx env.Ctx) {
		be := NewMem()
		w := OpenWAL(be, "sn0", WALConfig{SegmentBytes: 32}, 0, 1)
		for i := 0; i < 8; i++ {
			if err := w.Commit(ctx, []Record{{Part: 0, Mut: mut(fmt.Sprintf("k%d", i), "vvvvvvvv", uint64(i+1))}}); err != nil {
				t.Errorf("commit: %v", err)
			}
		}
		floor, _ := w.Position()
		if floor < 2 {
			t.Fatalf("expected several rolled segments, floor=%d", floor)
		}
		if err := w.TruncateBefore(ctx, floor); err != nil {
			t.Errorf("truncate: %v", err)
		}
		names, _ := be.List(ctx, "sn0/wal/")
		for _, name := range names {
			if idx, ok := segIndex(name); !ok || idx < floor {
				t.Errorf("segment below floor survived truncation: %s", name)
			}
		}
		n := 0
		if _, err := ReplayWAL(ctx, be, "sn0", floor, func(*Record) { n++ }); err != nil {
			t.Errorf("replay after truncate: %v", err)
		}
		if n == 0 {
			t.Error("expected surviving records at or above the floor")
		}
	})
}

func TestCheckpointWriteLoadGC(t *testing.T) {
	seed := testutil.Seed(t, 104)
	runSim(t, seed, func(ctx env.Ctx) {
		be := NewMem()
		cells := []wire.Mutation{
			mut("a", "1", 5),
			{Key: []byte("c"), Counter: true, CtrVal: 42, Stamp: 6},
			{Key: []byte("d"), Deleted: true, Stamp: 7},
			mut("e", "payload-payload-payload", 8),
		}
		man := &Manifest{Seq: 1, Floor: 3, LSN: 17, Fence: 1234}
		if err := WriteCheckpoint(ctx, be, "sn0", man, SliceSource(cells), 24); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		if man.Chunks < 2 {
			t.Errorf("expected multiple chunks, got %d", man.Chunks)
		}

		var got []wire.Mutation
		loaded, err := LoadCheckpoint(ctx, be, "sn0", func(m *wire.Mutation) { got = append(got, *m) })
		if err != nil {
			t.Errorf("load: %v", err)
			return
		}
		if loaded.Seq != 1 || loaded.Floor != 3 || loaded.Fence != 1234 || loaded.Cells != 4 || loaded.Stamp != 8 {
			t.Errorf("manifest mismatch: %+v", loaded)
		}
		if len(got) != len(cells) {
			t.Fatalf("loaded %d cells, want %d", len(got), len(cells))
		}
		for i := range cells {
			if !bytes.Equal(got[i].Key, cells[i].Key) || got[i].Stamp != cells[i].Stamp ||
				got[i].Deleted != cells[i].Deleted || got[i].CtrVal != cells[i].CtrVal {
				t.Errorf("cell %d mismatch: %+v != %+v", i, got[i], cells[i])
			}
		}

		// A second generation replaces the first and GCs its chunks.
		man2 := &Manifest{Seq: 2, Floor: 9, LSN: 30, Stamp: 20}
		if err := WriteCheckpoint(ctx, be, "sn0", man2, SliceSource(cells[:1]), 0); err != nil {
			t.Errorf("write gen2: %v", err)
			return
		}
		names, _ := be.List(ctx, "sn0/ckpt/")
		for _, name := range names {
			if name != manifestName("sn0") && !IsChunk("sn0", name) {
				t.Errorf("unexpected object %s", name)
			}
			if idx := genPrefix("sn0", 1); len(name) >= len(idx) && name[:len(idx)] == idx {
				t.Errorf("gen-1 chunk survived GC: %s", name)
			}
		}
		loaded2, err := LoadCheckpoint(ctx, be, "sn0", func(*wire.Mutation) {})
		if err != nil || loaded2.Seq != 2 {
			t.Errorf("load gen2: %+v err=%v", loaded2, err)
		}

		// Missing checkpoint: nil, nil.
		if m, err := LoadCheckpoint(ctx, be, "other", func(*wire.Mutation) {}); m != nil || err != nil {
			t.Errorf("absent checkpoint: m=%+v err=%v", m, err)
		}
	})
}

func TestRecoveryObjects(t *testing.T) {
	seed := testutil.Seed(t, 105)
	runSim(t, seed, func(ctx env.Ctx) {
		be := NewMem()
		w := OpenWAL(be, "sn0", WALConfig{SegmentBytes: 32}, 0, 1)
		for i := 0; i < 6; i++ {
			w.Commit(ctx, []Record{{Part: 0, Mut: mut(fmt.Sprintf("k%d", i), "vvvvvvvv", uint64(i+1))}})
		}
		floor, _ := w.Position()
		man := &Manifest{Seq: 1, Floor: floor, LSN: 7, Stamp: 6}
		if err := WriteCheckpoint(ctx, be, "sn0", man, SliceSource([]wire.Mutation{mut("a", "1", 1)}), 0); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		w.TruncateBefore(ctx, floor)

		objs, err := RecoveryObjects(ctx, be, "sn0")
		if err != nil {
			t.Errorf("objects: %v", err)
			return
		}
		if len(objs) == 0 {
			t.Fatal("no recovery objects")
		}
		sawChunk, sawSeg := false, false
		for _, o := range objs {
			switch {
			case IsChunk("sn0", o):
				sawChunk = true
			case IsSegment("sn0", o):
				sawSeg = true
				if idx, ok := segIndex(o); !ok || idx < floor {
					t.Errorf("recovery lists segment below floor: %s", o)
				}
			default:
				t.Errorf("unexpected recovery object %s", o)
			}
		}
		if !sawChunk || !sawSeg {
			t.Errorf("want chunks and segments, got %v", objs)
		}
	})
}

// TestBlobStagedLostWithoutSync pins the Append/Sync crash semantics the
// crash-point harness relies on: staged bytes are invisible to Get until
// Sync promotes them.
func TestBlobStagedLostWithoutSync(t *testing.T) {
	seed := testutil.Seed(t, 106)
	runSim(t, seed, func(ctx env.Ctx) {
		be := NewMem()
		be.Append(ctx, "x", []byte("abc"))
		if _, err := be.Get(ctx, "x"); err != ErrNotExist {
			t.Errorf("staged object visible before sync: %v", err)
		}
		be.Sync(ctx, "x")
		data, err := be.Get(ctx, "x")
		if err != nil || !bytes.Equal(data, []byte("abc")) {
			t.Errorf("after sync: %q err=%v", data, err)
		}
		be.Append(ctx, "x", []byte("def"))
		data, _ = be.Get(ctx, "x")
		if !bytes.Equal(data, []byte("abc")) {
			t.Errorf("unsynced append leaked: %q", data)
		}
	})
}

// TestBlobLatencyDeterministic pins the latency model: same profile, same
// calls, same virtual elapsed time.
func TestBlobLatencyDeterministic(t *testing.T) {
	elapsed := func() time.Duration {
		var d time.Duration
		runSim(t, 7, func(ctx env.Ctx) {
			be := NewBlob(S3Profile())
			start := ctx.Now()
			be.Put(ctx, "a", make([]byte, 1<<20))
			be.Append(ctx, "b", make([]byte, 4096))
			be.Sync(ctx, "b")
			be.Get(ctx, "a")
			be.List(ctx, "")
			d = ctx.Now() - start
		})
		return d
	}
	d1, d2 := elapsed(), elapsed()
	if d1 != d2 {
		t.Fatalf("blob latency not deterministic: %v != %v", d1, d2)
	}
	if d1 < 4*time.Millisecond {
		t.Fatalf("latency model charged too little: %v", d1)
	}
}

func TestFileBackend(t *testing.T) {
	dir := t.TempDir()
	seed := testutil.Seed(t, 107)
	runSim(t, seed, func(ctx env.Ctx) {
		be, err := NewFile(dir)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		defer be.Close()
		w := OpenWAL(be, "sn0", WALConfig{SegmentBytes: 64}, 0, 1)
		for i := 0; i < 5; i++ {
			if err := w.Commit(ctx, []Record{{Part: 0, Mut: mut(fmt.Sprintf("k%d", i), "v", uint64(i+1))}}); err != nil {
				t.Errorf("commit: %v", err)
				return
			}
		}
		man := &Manifest{Seq: 1, Floor: 0, LSN: 6, Stamp: 5}
		if err := WriteCheckpoint(ctx, be, "sn0", man, SliceSource([]wire.Mutation{mut("a", "1", 1)}), 0); err != nil {
			t.Errorf("checkpoint: %v", err)
			return
		}

		// A fresh handle over the same directory sees everything: this is
		// the telld restart path.
		be2, err := NewFile(dir)
		if err != nil {
			t.Errorf("reopen: %v", err)
			return
		}
		defer be2.Close()
		n := 0
		st, err := ReplayWAL(ctx, be2, "sn0", 0, func(*Record) { n++ })
		if err != nil || n != 5 || st.Torn {
			t.Errorf("replay: n=%d torn=%v err=%v", n, st.Torn, err)
		}
		loaded, err := LoadCheckpoint(ctx, be2, "sn0", func(*wire.Mutation) {})
		if err != nil || loaded == nil || loaded.Seq != 1 {
			t.Errorf("load: %+v err=%v", loaded, err)
		}

		// Wipe models losing the disk.
		be2.Wipe("sn0/")
		if objs, _ := be2.List(ctx, "sn0/"); len(objs) != 0 {
			t.Errorf("objects survived wipe: %v", objs)
		}
	})
}

// Deleting a retired checkpoint generation's chunks removes its directory:
// after three checkpoints only the live generation's directory is left.
func TestFileCheckpointGCRemovesGenerationDirs(t *testing.T) {
	dir := t.TempDir()
	runSim(t, testutil.Seed(t, 108), func(ctx env.Ctx) {
		be, err := NewFile(dir)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		defer be.Close()
		for seq := uint64(1); seq <= 3; seq++ {
			man := &Manifest{Seq: seq, LSN: seq}
			cells := []wire.Mutation{mut("a", "1", seq), mut("b", "2", seq)}
			if err := WriteCheckpoint(ctx, be, "sn0", man, SliceSource(cells), 24); err != nil {
				t.Errorf("checkpoint %d: %v", seq, err)
				return
			}
		}
	})
	entries, err := os.ReadDir(filepath.Join(dir, "sn0", "ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, e.Name())
		}
	}
	if want := fmt.Sprintf("g%010d", 3); len(dirs) != 1 || dirs[0] != want {
		t.Fatalf("generation directories %v, want only %s", dirs, want)
	}
}

// Pruning never removes a directory between Put creating it and the object
// landing in it: Puts into a directory that concurrent Deletes keep pruning
// all succeed.
func TestFilePutRacesDeletePruning(t *testing.T) {
	be, err := NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	const writers, pruners, rounds = 2, 2, 300
	var writing, pruning sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan error, writers+pruners)
	for p := 0; p < pruners; p++ {
		pruning.Add(1)
		go func() {
			defer pruning.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				// A missing object: the call only prunes.
				if err := be.Delete(nil, "ns/gen/deep/missing"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			name := fmt.Sprintf("ns/gen/deep/obj-%d", w)
			for i := 0; i < rounds; i++ {
				if err := be.Put(nil, name, []byte("x")); err != nil {
					errs <- fmt.Errorf("put %s round %d: %w", name, i, err)
					return
				}
				if err := be.Delete(nil, name); err != nil {
					errs <- fmt.Errorf("delete %s round %d: %w", name, i, err)
					return
				}
			}
		}(w)
	}
	writing.Wait()
	close(done)
	pruning.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
