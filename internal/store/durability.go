package store

import (
	"errors"

	"tell/internal/det"
	"tell/internal/durable"
	"tell/internal/env"
	"tell/internal/resil"
	"tell/internal/sanitize"
	"tell/internal/wire"
)

// DurOptions configures a storage node's durability tier: a per-node WAL
// plus fuzzy checkpoints on a shared Backend, namespaced by node address so
// survivors can read a dead node's objects during scatter-gather recovery.
type DurOptions struct {
	Backend durable.Backend
	// SegmentBytes is the WAL segment roll threshold (default 64 KiB).
	// Recovery parallelism is bounded by object count, so experiments
	// shrink this to spread one node's log across many workers.
	SegmentBytes int
	// ChunkBytes bounds checkpoint chunk size (default 64 KiB).
	ChunkBytes int
	// CheckpointBytes triggers an automatic fuzzy checkpoint after this
	// many WAL bytes since the last one (0 = manual checkpoints only).
	CheckpointBytes int
}

// durState is the per-node durability runtime: the WAL plus the group-commit
// combiner that batches concurrent request handlers into one log append.
type durState struct {
	opts DurOptions

	mu       sanitize.Mutex
	wal      *durable.WAL
	pending  []durable.Record
	waiters  []env.Future
	flushing bool
	// dead: the WAL failed mid-append; the log tail is undefined, so the
	// node fail-stops (every request answers Unavailable) until recovered.
	dead bool
	// crashed: the process was killed (chaos CrashProcess); volatile state
	// is gone and the node refuses service until RecoverLocal completes.
	crashed  bool
	ckptBusy bool
	ckptSeq  uint64
	ckpts    uint64
}

// AttachDurability equips the node with a WAL and checkpointing. Call at
// setup, before the node serves traffic. No I/O happens here.
func (sn *Node) AttachDurability(opts DurOptions) {
	d := &durState{opts: opts}
	d.mu.SetName("store.durState.mu")
	d.wal = durable.OpenWAL(opts.Backend, sn.addr, durable.WALConfig{SegmentBytes: opts.SegmentBytes}, 0, 1)
	sn.dur = d
}

// Durable reports whether the node has a durability tier attached.
func (sn *Node) Durable() bool { return sn.dur != nil }

// down reports whether the node must refuse service (crashed or WAL dead).
func (d *durState) down() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.crashed || d.dead
}

// walCommit makes recs durable before the caller may acknowledge them. It is
// a group-commit combiner: one flusher drains the pending batch per WAL
// round-trip, every other caller parks on a future and shares that round's
// outcome. Returns nil immediately when the node has no durability tier or
// recs is empty.
func (sn *Node) walCommit(ctx env.Ctx, recs []durable.Record) error {
	d := sn.dur
	if d == nil || len(recs) == 0 {
		return nil
	}
	d.mu.Lock()
	if d.crashed || d.dead {
		d.mu.Unlock()
		return errors.New("store: durability tier down")
	}
	d.pending = append(d.pending, recs...)
	if d.flushing {
		// A flusher is running; it will pick this batch up on its next
		// round and deliver the outcome through the future.
		f := sn.envr.NewFuture()
		d.waiters = append(d.waiters, f)
		d.mu.Unlock()
		if err, _ := f.Get(ctx).(error); err != nil {
			return err
		}
		sn.maybeCheckpoint()
		return nil
	}
	d.flushing = true
	var firstErr error
	for first := true; ; first = false {
		batch := d.pending
		waiters := d.waiters
		d.pending = nil
		d.waiters = nil
		d.mu.Unlock()

		err := d.wal.Commit(ctx, batch)
		for _, w := range waiters {
			if err != nil {
				w.Set(err)
			} else {
				w.Set(nil)
			}
		}
		if first {
			firstErr = err
		}

		d.mu.Lock()
		if err != nil {
			// Fail-stop: a failed append leaves the log tail undefined.
			d.dead = true
		}
		if len(d.pending) == 0 || d.dead {
			// Unparked waiters of a dead log, if any, fail on their own
			// next round via the crashed/dead check above.
			for _, w := range d.waiters {
				w.Set(errors.New("store: durability tier down"))
			}
			d.waiters = nil
			d.pending = nil
			d.flushing = false
			d.mu.Unlock()
			if firstErr == nil {
				sn.maybeCheckpoint()
			}
			return firstErr
		}
	}
}

// maybeCheckpoint starts a background fuzzy checkpoint when enough WAL bytes
// accumulated since the last one.
func (sn *Node) maybeCheckpoint() {
	d := sn.dur
	if d == nil || d.opts.CheckpointBytes <= 0 {
		return
	}
	d.mu.Lock()
	start := !d.ckptBusy && !d.dead && !d.crashed &&
		d.wal.SinceCheckpoint() >= uint64(d.opts.CheckpointBytes)
	if start {
		d.ckptBusy = true
	}
	d.mu.Unlock()
	if start {
		sn.node.Go("checkpoint", func(ctx env.Ctx) { sn.checkpoint(ctx) })
	}
}

// Checkpoint writes a fuzzy checkpoint now (test and load-time hook; the
// steady-state path is the CheckpointBytes trigger). No-op if one is already
// running or the node is down.
func (sn *Node) Checkpoint(ctx env.Ctx) error {
	d := sn.dur
	if d == nil {
		return nil
	}
	d.mu.Lock()
	skip := d.ckptBusy || d.dead || d.crashed
	if !skip {
		d.ckptBusy = true
	}
	d.mu.Unlock()
	if skip {
		return nil
	}
	return sn.checkpoint(ctx)
}

// checkpoint performs the fuzzy checkpoint; d.ckptBusy is held by the caller
// and released here. The WAL floor is read BEFORE the first chunk is cut:
// the image is streamed chunk by chunk with sn.mu released across each
// backend write, and every mutation a chunk misses (or a later chunk
// over-includes) lands in a segment at or above the floor, so image + suffix
// replay loses nothing (stamps dedupe the overlap).
func (sn *Node) checkpoint(ctx env.Ctx) error {
	d := sn.dur
	defer func() {
		d.mu.Lock()
		d.ckptBusy = false
		d.mu.Unlock()
	}()

	floor, lsn := d.wal.Position()
	d.mu.Lock()
	seq := d.ckptSeq + 1
	d.mu.Unlock()
	man := &durable.Manifest{Seq: seq, Floor: floor, LSN: lsn}
	if err := durable.WriteCheckpoint(ctx, d.opts.Backend, sn.addr, man, sn.ckptSource(), d.opts.ChunkBytes); err != nil {
		// A failed checkpoint leaves the previous generation intact; the
		// node keeps serving from the (longer) log.
		return err
	}
	d.mu.Lock()
	d.ckptSeq = seq
	d.ckpts++
	d.mu.Unlock()
	d.wal.MarkCheckpoint()
	return d.wal.TruncateBefore(ctx, floor)
}

// errCkptAborted: the memtable a checkpoint was walking is gone.
var errCkptAborted = errors.New("store: checkpoint aborted: node crashed or recovered mid-image")

// ckptSource returns the durable.CellSource of one checkpoint: each call
// walks, under one sn.mu hold, the memtable that was live when the checkpoint
// began. A crash or a recovery between two chunks swaps that memtable out;
// resuming the cursor on its replacement would end the image early and the
// manifest would then truncate the log that still holds the rest, so the
// source fails instead and the previous generation stays current.
func (sn *Node) ckptSource() durable.CellSource {
	sn.mu.Lock()
	mt := sn.mt
	sn.mu.Unlock()
	return func(after []byte, emit func(wire.Mutation) bool) error {
		sn.mu.Lock()
		defer sn.mu.Unlock()
		if sn.mt != mt {
			return errCkptAborted
		}
		scanCells(mt, after, emit)
		return nil
	}
}

// scanCells emits, in key order, every cell of mt with key > after (all of
// them when after is nil), tombstones included, until emit returns false. The
// caller holds the lock that guards mt; the mutations alias the memtable and
// are valid only during emit.
func scanCells(mt *memtable, after []byte, emit func(wire.Mutation) bool) {
	mt.scanAfter(after, func(key []byte, c cell) bool {
		return emit(cellView(key, c))
	})
}

// StateDump snapshots the memtable as mutations in key order, tombstones
// included (test and crash-harness assertions; the checkpoint streams
// scanCells instead of materialising this).
func (sn *Node) StateDump() []wire.Mutation {
	var out []wire.Mutation
	sn.mu.Lock()
	defer sn.mu.Unlock()
	scanCells(sn.mt, nil, func(m wire.Mutation) bool {
		out = append(out, ownMutation(m))
		return true
	})
	return out
}

// cellView is a memtable cell in its wire form, aliasing key and value: for
// use under sn.mu only.
func cellView(key []byte, c cell) wire.Mutation {
	m := wire.Mutation{Key: key, Stamp: c.stamp}
	switch {
	case c.dead:
		m.Deleted = true
	case c.isCtr:
		m.Counter = true
		m.CtrVal = c.counter
	default:
		m.Val = c.val
	}
	return m
}

// ownMutation gives m its own copy of key and value.
func ownMutation(m wire.Mutation) wire.Mutation {
	m.Key = append([]byte(nil), m.Key...)
	m.Val = append([]byte(nil), m.Val...)
	return m
}

// cellMutation converts a memtable cell to its wire form, copying key and
// value out of the memtable so the result outlives the lock hold.
func cellMutation(key []byte, c cell) wire.Mutation {
	return ownMutation(cellView(key, c))
}

// cellFromMutation is the inverse of cellMutation.
func cellFromMutation(m *wire.Mutation) cell {
	switch {
	case m.Deleted:
		return cell{dead: true, stamp: m.Stamp}
	case m.Counter:
		return cell{isCtr: true, counter: m.CtrVal, stamp: m.Stamp}
	default:
		return cell{val: append([]byte(nil), m.Val...), stamp: m.Stamp}
	}
}

// CrashVolatile models a process crash: all volatile state (memtable, stamp
// counter, partition map, dedup window) is discarded and the node refuses
// service until RecoverLocal. With loseDisk the durable namespace is wiped
// too — the node comes back amnesiac, as after losing local storage.
func (sn *Node) CrashVolatile(loseDisk bool) {
	d := sn.dur
	if d != nil {
		d.mu.Lock()
		d.crashed = true
		d.mu.Unlock()
		if loseDisk {
			if w, ok := d.opts.Backend.(durable.Wiper); ok {
				w.Wipe(sn.addr + "/")
			}
		}
	}
	sn.mu.Lock()
	sn.mt = newMemtable(int64(KeyHash([]byte(sn.addr))))
	sn.stamp = 0
	sn.pmap = &PartitionMap{}
	sn.masters = nil
	sn.deadRep = make(map[string]bool)
	sn.dedup = resil.NewWindow(1024)
	sn.mu.Unlock()
}

// RecoverLocal rebuilds the node from its own durable objects: load the
// checkpoint image, replay the WAL suffix apply-if-newer, jump the stamp
// counter past everything recovered, and reopen the WAL on a fresh segment
// (never appending to one that may end torn). The dedup window is volatile
// and starts empty — the same property a promoted replica has today.
func (sn *Node) RecoverLocal(ctx env.Ctx) (durable.ReplayStats, error) {
	d := sn.dur
	if d == nil {
		return durable.ReplayStats{}, errors.New("store: node has no durability tier")
	}
	// Build the recovered image off to the side: backend reads block, and
	// sn.mu must not be held across them.
	mt := newMemtable(int64(KeyHash([]byte(sn.addr))))
	var maxStamp uint64
	apply := func(m *wire.Mutation) {
		if cur, ok := mt.get(m.Key); ok && cur.stamp >= m.Stamp {
			return
		}
		mt.set(m.Key, cellFromMutation(m))
		if m.Stamp > maxStamp {
			maxStamp = m.Stamp
		}
	}
	man, err := durable.LoadCheckpoint(ctx, d.opts.Backend, sn.addr, apply)
	if err != nil {
		return durable.ReplayStats{}, err
	}
	var floor, seq, manLSN uint64
	if man != nil {
		floor, seq, manLSN = man.Floor, man.Seq, man.LSN
		if man.Stamp > maxStamp {
			maxStamp = man.Stamp
		}
	}
	stats, err := durable.ReplayWAL(ctx, d.opts.Backend, sn.addr, floor, func(r *durable.Record) {
		if r.Part == migJournalPart {
			return // migration control records never enter the memtable
		}
		apply(&r.Mut)
	})
	if err != nil {
		return stats, err
	}

	sn.mu.Lock()
	sn.mt = mt
	// Skip past every stamp the dead incarnation might have assigned (the
	// same insurance a promoted replica takes).
	sn.stamp = maxStamp + stampSkipOnPromotion
	sn.mu.Unlock()

	nextLSN := stats.MaxLSN
	if manLSN > nextLSN {
		nextLSN = manLSN
	}
	d.mu.Lock()
	d.wal = durable.OpenWAL(d.opts.Backend, sn.addr,
		durable.WALConfig{SegmentBytes: d.opts.SegmentBytes}, stats.NextSeg, nextLSN+1)
	d.ckptSeq = seq
	d.pending = nil
	d.waiters = nil
	d.flushing = false
	d.crashed = false
	d.dead = false
	d.mu.Unlock()
	return stats, nil
}

// RecoverAsync spawns local recovery on the node's own execution node — the
// chaos restart hook: the process comes back, replays its disk, and only
// then serves again. On replay failure the node stays down (fail-stop).
func (sn *Node) RecoverAsync() {
	sn.node.Go("recover", func(ctx env.Ctx) {
		sn.RecoverLocal(ctx)
	})
}

// DurStats returns WAL commit/record counts and completed checkpoints.
func (sn *Node) DurStats() (commits, records, ckpts uint64) {
	d := sn.dur
	if d == nil {
		return 0, 0, 0
	}
	commits, records = d.wal.Stats()
	d.mu.Lock()
	ckpts = d.ckpts
	d.mu.Unlock()
	return commits, records, ckpts
}

// handleRecover is the scatter-gather worker: fetch the assigned shard of a
// dead node's durable objects, decode them, and route every record — applied
// and re-logged locally when this node is the partition's new master,
// forwarded as a replication batch otherwise. Apply-if-newer by stamp makes
// the routing order-independent across workers.
func (sn *Node) handleRecover(ctx env.Ctx, raw []byte) []byte {
	req, err := wire.DecodeRecoverRequest(raw)
	if err != nil || sn.dur == nil {
		return (&wire.RecoverResponse{Status: wire.StatusError}).Encode()
	}
	assign := make(map[uint64]string, len(req.Assign))
	for _, a := range req.Assign {
		assign[a.Pid] = a.Addr
	}
	resp := &wire.RecoverResponse{Status: wire.StatusOK}
	// Records grouped by destination partition, local vs forwarded.
	local := make(map[uint64][]wire.Mutation)
	remote := make(map[uint64][]wire.Mutation)
	for _, obj := range req.Objects {
		data, err := sn.dur.opts.Backend.Get(ctx, obj)
		if err != nil {
			return (&wire.RecoverResponse{Status: wire.StatusUnavailable}).Encode()
		}
		resp.Bytes += uint64(len(data))
		route := func(pid uint64, m *wire.Mutation) {
			target, ok := assign[pid]
			if !ok {
				// Not a partition being recovered (the dead node also
				// replicated others); the surviving master still has it.
				return
			}
			resp.Records++
			if target == sn.addr {
				local[pid] = append(local[pid], *m)
			} else {
				remote[pid] = append(remote[pid], *m)
			}
		}
		if durable.IsSegment(req.Dead, obj) {
			// A torn tail is the expected crash signature: the partial
			// frame's records were never acknowledged. Corruption is not.
			_, err := durable.DecodeSegment(data, func(r *durable.Record) {
				route(r.Part, &r.Mut)
			})
			if err != nil && !durable.IsTorn(err) {
				return (&wire.RecoverResponse{Status: wire.StatusError}).Encode()
			}
		} else {
			// Checkpoint chunks carry no partition id; route each cell by
			// its key hash against the assignment table.
			pids := det.Keys(assign)
			if err := durable.DecodeChunk(data, func(m *wire.Mutation) {
				for _, pid := range pids {
					if p := sn.partByID(pid); p != nil && p.Owns(KeyHash(m.Key)) {
						route(pid, m)
						return
					}
				}
			}); err != nil {
				return (&wire.RecoverResponse{Status: wire.StatusError}).Encode()
			}
		}
	}
	ctx.Work(sn.costs.chargeFor(int(resp.Records), int(resp.Bytes)))

	// Local records: apply under the lock, then WAL-log them so this node's
	// own durable state covers its new partitions.
	var recs []durable.Record
	sn.mu.Lock()
	for _, pid := range det.Keys(local) {
		for i := range local[pid] {
			m := &local[pid][i]
			sn.applyMutationLocked(m)
			recs = append(recs, durable.Record{Part: pid, Mut: *m})
		}
	}
	sn.mu.Unlock()
	if err := sn.walCommit(ctx, recs); err != nil {
		return (&wire.RecoverResponse{Status: wire.StatusUnavailable}).Encode()
	}

	// Forwarded records: chunked replication batches; the receiving master
	// applies and re-logs them through its own replicate path.
	for _, pid := range det.Keys(remote) {
		ms := remote[pid]
		target := assign[pid]
		for off := 0; off < len(ms); off += transferChunk {
			end := off + transferChunk
			if end > len(ms) {
				end = len(ms)
			}
			conn, err := sn.conns.Get(target)
			if err != nil {
				return (&wire.RecoverResponse{Status: wire.StatusUnavailable}).Encode()
			}
			rr := &wire.ReplicateRequest{PartitionID: pid, Mutations: ms[off:end]}
			// Apply-if-newer on the receiving master makes re-sends safe.
			raw, _, err := sn.retr.Call(ctx, resil.ClassReplicate, target, conn, rr.Encode(), nil)
			if err != nil {
				return (&wire.RecoverResponse{Status: wire.StatusUnavailable}).Encode()
			}
			dec, err := wire.DecodeReplicateResponse(raw)
			if err != nil || dec.Status != wire.StatusOK {
				return (&wire.RecoverResponse{Status: wire.StatusUnavailable}).Encode()
			}
		}
	}
	return resp.Encode()
}

// partByID returns the node's view of partition pid. Caller need not hold
// sn.mu (reads a cloned map swapped atomically under it).
func (sn *Node) partByID(pid uint64) *Partition {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	for i := range sn.pmap.Partitions {
		if sn.pmap.Partitions[i].ID == pid {
			return &sn.pmap.Partitions[i]
		}
	}
	return nil
}
