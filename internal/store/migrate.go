package store

import (
	"fmt"
	"sort"
	"time"

	"tell/internal/det"
	"tell/internal/durable"
	"tell/internal/env"
	"tell/internal/resil"
	"tell/internal/wire"
)

// Live range migration, storage-node side. The manager drives a three-phase
// protocol against the source master:
//
//  1. Bulk copy (metaMigCopy): every cell of the range ships to the target
//     in bounded chunks, under short lock holds and an optional per-chunk
//     throttle, so the source keeps serving normal traffic. The reply
//     carries a stamp floor: any write applied after the copy began has a
//     stamp strictly above it.
//  2. Delta catch-up (metaMigDelta, repeated): cells above the floor ship
//     over, shrinking the catch-up window round by round.
//  3. Fenced cutover (metaMigFence): the source atomically fences the range
//     — writes fail with StatusStaleMap, reads stay live (STAR-style) — and
//     the final delta is collected under the same lock hold, so the shipped
//     set is provably complete. The manager then commits the cutover in its
//     journal and publishes the new map.
//
// Every phase is WAL-journaled on both ends (control records under the
// reserved migJournalPart id, skipped by recovery replay), so a crash at
// any boundary leaves a durable trace; ownership after a crash is decided
// by the manager's own journal (see placement.go).

// migJournalPart is the reserved partition id migration journal records ride
// the WAL under. Recovery replay skips it: these are control records, never
// memtable data.
const migJournalPart = ^uint64(0)

// Migration phase names (wire.MigrationStat.Phase and journal records).
const (
	migPhaseCopy    = "copy"
	migPhaseDelta   = "delta"
	migPhaseFence   = "fence"
	migPhaseAdopt   = "adopt"
	migPhaseCutover = "cutover"
	migPhaseDone    = "done"
	migPhaseAborted = "aborted"
)

const (
	// migDeltaRounds bounds delta catch-up rounds before the fence.
	migDeltaRounds = 8
	// migDeltaSettle: once a delta round ships at most this many cells, the
	// catch-up window is small enough to close under the fence.
	migDeltaSettle = 64
)

// findPartLocked returns this node's view of partition pid. Caller holds
// sn.mu.
func (sn *Node) findPartLocked(pid uint64) *Partition {
	for i := range sn.pmap.Partitions {
		if sn.pmap.Partitions[i].ID == pid {
			return &sn.pmap.Partitions[i]
		}
	}
	return nil
}

// migJournal appends one migration control record to the WAL and waits for
// it to be durable. No-op without a durability tier.
func (sn *Node) migJournal(ctx env.Ctx, pid uint64, phase, peer string) error {
	if sn.dur == nil {
		return nil
	}
	rec := durable.Record{Part: migJournalPart, Mut: wire.Mutation{
		Key: []byte(fmt.Sprintf("mig/%d", pid)),
		Val: []byte(phase + "/" + peer),
	}}
	return sn.walCommit(ctx, []durable.Record{rec})
}

// migTrack updates the node's migration telemetry row for pid (served
// through the extended stats protocol; `tellcli top` renders it).
func (sn *Node) migTrack(pid uint64, phase, source, target string, addBytes, addChunks int64) {
	sn.mu.Lock()
	if sn.migs == nil {
		sn.migs = make(map[uint64]*wire.MigrationStat)
	}
	g := sn.migs[pid]
	if g == nil {
		g = &wire.MigrationStat{Node: sn.addr, Range: pid}
		sn.migs[pid] = g
	}
	if phase != "" {
		g.Phase = phase
	}
	if source != "" {
		g.Source = source
	}
	if target != "" {
		g.Target = target
	}
	g.BytesMoved += addBytes
	g.Chunks += addChunks
	sn.mu.Unlock()
}

// fillMigStats appends the node's migration rows to an extended stats
// snapshot, in range order.
func (sn *Node) fillMigStats(ext *wire.StatsExt) {
	sn.mu.Lock()
	for _, pid := range det.Keys(sn.migs) {
		ext.Migr = append(ext.Migr, *sn.migs[pid])
	}
	sn.mu.Unlock()
}

// shipChunk sends one bounded batch of cells to target over the replicate
// protocol (apply-if-newer + WAL on the receiving side, so re-sends are
// safe). Returns the encoded request size.
func (sn *Node) shipChunk(ctx env.Ctx, pid uint64, target string, ms []wire.Mutation) (int, bool) {
	conn, err := sn.conns.Get(target)
	if err != nil {
		return 0, false
	}
	req := &wire.ReplicateRequest{PartitionID: pid, Mutations: ms}
	enc := req.Encode()
	raw, _, err := sn.retr.Call(ctx, resil.ClassReplicate, target, conn, enc, nil)
	if err != nil {
		return 0, false
	}
	rr, err := wire.DecodeReplicateResponse(raw)
	if err != nil || rr.Status != wire.StatusOK {
		return 0, false
	}
	return len(enc), true
}

// copyRange ships every cell of partition pid with stamp > floor to target,
// in transferChunk-sized batches collected under short lock holds (the
// memtable cursor advances between holds, so client traffic interleaves
// with the copy). The returned floor is the node's stamp counter when the
// pass began: a cell the cursor missed because it was written behind the
// cursor carries a stamp above that floor and is caught by the next pass.
func (sn *Node) copyRange(ctx env.Ctx, pid uint64, target string, floor uint64, throttle time.Duration) (migAck, bool) {
	ack := migAck{Status: wire.StatusOK}
	var after []byte               // nil: the first batch starts at the smallest key
	lastKey := make([]byte, 0, 64) // never nil, so an empty key cannot restart the walk
	first := true
	for {
		var batch []wire.Mutation
		done := true
		sn.mu.Lock()
		part := sn.findPartLocked(pid)
		if part == nil {
			sn.mu.Unlock()
			return ack, false
		}
		if first {
			ack.Floor = sn.stamp
			first = false
		}
		sn.mt.scanAfter(after, func(key []byte, c cell) bool {
			lastKey = append(lastKey[:0], key...)
			after = lastKey
			if part.Owns(KeyHash(key)) && c.stamp > floor {
				batch = append(batch, cellMutation(key, c))
			}
			if len(batch) >= transferChunk {
				done = false
				return false
			}
			return true
		})
		sn.mu.Unlock()
		if len(batch) > 0 {
			n, ok := sn.shipChunk(ctx, pid, target, batch)
			if !ok {
				return ack, false
			}
			ack.Count += uint64(len(batch))
			ack.Bytes += uint64(n)
		}
		if done {
			return ack, true
		}
		if throttle > 0 {
			ctx.Sleep(throttle)
		}
	}
}

// handleMigCopy serves the bulk-copy phase on the source master.
func (sn *Node) handleMigCopy(ctx env.Ctx, pid uint64, target string) []byte {
	if err := sn.migJournal(ctx, pid, migPhaseCopy, target); err != nil {
		return encodeMigAck(migAck{Status: wire.StatusUnavailable})
	}
	sn.migTrack(pid, migPhaseCopy, sn.addr, target, 0, 0)
	ack, ok := sn.copyRange(ctx, pid, target, 0, sn.MigrateChunkDelay)
	sn.migTrack(pid, "", "", "", int64(ack.Bytes), chunksOf(ack.Count))
	if !ok {
		return encodeMigAck(migAck{Status: wire.StatusUnavailable})
	}
	return encodeMigAck(ack)
}

// handleMigDelta serves one delta catch-up round on the source master.
func (sn *Node) handleMigDelta(ctx env.Ctx, pid uint64, target string, floor uint64) []byte {
	if err := sn.migJournal(ctx, pid, migPhaseDelta, target); err != nil {
		return encodeMigAck(migAck{Status: wire.StatusUnavailable})
	}
	sn.migTrack(pid, migPhaseDelta, sn.addr, target, 0, 0)
	ack, ok := sn.copyRange(ctx, pid, target, floor, sn.MigrateChunkDelay)
	sn.migTrack(pid, "", "", "", int64(ack.Bytes), chunksOf(ack.Count))
	if !ok {
		return encodeMigAck(migAck{Status: wire.StatusUnavailable})
	}
	return encodeMigAck(ack)
}

// handleMigFence raises the write fence on pid and ships the final delta.
// The fence flag and the delta collection happen under one sn.mu hold:
// writes execute under the same lock, so nothing can land between "last
// cell collected" and "writes start failing with StatusStaleMap" — the
// shipped set is complete, which is what makes the cutover linearizable
// for LL/SC (an in-flight conditional either executed before the fence and
// its cell shipped, or fails with the retriable stale-map status).
func (sn *Node) handleMigFence(ctx env.Ctx, pid uint64, target string, floor uint64) []byte {
	sn.mu.Lock()
	part := sn.findPartLocked(pid)
	if part == nil {
		sn.mu.Unlock()
		return encodeMigAck(migAck{Status: wire.StatusError})
	}
	if sn.fenced == nil {
		sn.fenced = make(map[uint64]bool)
	}
	sn.fenced[pid] = true
	var final []wire.Mutation
	sn.mt.scan(nil, nil, false, func(key []byte, c cell) bool {
		if part.Owns(KeyHash(key)) && c.stamp > floor {
			final = append(final, cellMutation(key, c))
		}
		return true
	})
	ack := migAck{Status: wire.StatusOK, Floor: sn.stamp}
	sn.mu.Unlock()

	abort := func() []byte {
		sn.mu.Lock()
		delete(sn.fenced, pid)
		sn.mu.Unlock()
		//lint:allow errdiscard best-effort abort trace; the manager journal decides ownership
		sn.migJournal(ctx, pid, migPhaseAborted, target)
		sn.migTrack(pid, migPhaseAborted, "", "", 0, 0)
		return encodeMigAck(migAck{Status: wire.StatusUnavailable})
	}
	// Journal the fence before shipping: a source crash after this point
	// leaves a durable trace that a fence was raised, and the manager's
	// journal decides whether the cutover committed.
	if err := sn.migJournal(ctx, pid, migPhaseFence, target); err != nil {
		return abort()
	}
	sn.migTrack(pid, migPhaseFence, sn.addr, target, 0, 0)
	for off := 0; off < len(final); off += transferChunk {
		end := off + transferChunk
		if end > len(final) {
			end = len(final)
		}
		n, ok := sn.shipChunk(ctx, pid, target, final[off:end])
		if !ok {
			return abort()
		}
		ack.Count += uint64(end - off)
		ack.Bytes += uint64(n)
	}
	sn.migTrack(pid, "", "", "", int64(ack.Bytes), chunksOf(ack.Count))
	return encodeMigAck(ack)
}

// handleMigFinish clears the fence after the manager committed (or aborted)
// the cutover. The stale data the source keeps for the range is harmless:
// it no longer masters the range, so reads and scans skip it, and if it
// serves as a replica the new master's stream overwrites it by stamp.
func (sn *Node) handleMigFinish(ctx env.Ctx, pid uint64, aborted bool) []byte {
	sn.mu.Lock()
	delete(sn.fenced, pid)
	sn.mu.Unlock()
	phase := migPhaseDone
	if aborted {
		phase = migPhaseAborted
	}
	if err := sn.migJournal(ctx, pid, phase, ""); err != nil {
		return encodeMetaAck(wire.StatusUnavailable)
	}
	sn.migTrack(pid, phase, "", "", 0, 0)
	return encodeMetaAck(wire.StatusOK)
}

// handleMigMedian replies a data-aware split point for range pid: the
// load-weighted median live-key hash, so one split separates roughly half
// of the range's ACCESSES, not half of its keys. Weighting by the per-key
// access counters matters twice over: a hash-midpoint split needs dozens
// of bisection steps when the range's keys sit in a narrow hash band
// (short keys with a shared prefix pin FNV's high bits), and a key-count
// median keeps all the heat on one side when a few keys carry most of the
// traffic (version-set entries, counters). The ack's Floor field carries
// the chosen hash. Unavailable when the node does not master the range or
// its keys give no point that leaves both halves non-empty.
func (sn *Node) handleMigMedian(pid uint64) []byte {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	p := sn.findPartLocked(pid)
	if p == nil || p.Master != sn.addr {
		return encodeMigAck(migAck{Status: wire.StatusUnavailable})
	}
	type kw struct{ h, w uint64 }
	var ks []kw
	var total uint64
	sn.mt.scanHits(func(key []byte, c cell, hits uint64) bool {
		if !c.dead {
			if h := KeyHash(key); p.Owns(h) {
				w := hits + 1 // untouched keys still count as data
				ks = append(ks, kw{h, w})
				total += w
			}
		}
		return true
	})
	if len(ks) == 0 {
		return encodeMigAck(migAck{Status: wire.StatusUnavailable})
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].h < ks[j].h })
	var acc uint64
	i := 0
	for ; i < len(ks)-1; i++ {
		acc += ks[i].w
		if 2*acc >= total {
			break
		}
	}
	// Keys with hash <= the split point stay in the lower half; back off
	// until the upper half keeps at least one key.
	for i >= 0 && ks[i].h == ks[len(ks)-1].h {
		i--
	}
	if i < 0 {
		return encodeMigAck(migAck{Status: wire.StatusUnavailable})
	}
	return encodeMigAck(migAck{Status: wire.StatusOK, Floor: ks[i].h})
}

// handleMigAdopt journals on the target that it is about to own pid — the
// target-side half of "every phase is journaled on both ends". The map push
// that follows makes the adoption effective; the returned floor is the
// target's stamp counter (it already covers every shipped cell, because
// applying the chunks advanced it past their stamps).
func (sn *Node) handleMigAdopt(ctx env.Ctx, pid uint64, src string) []byte {
	if err := sn.migJournal(ctx, pid, migPhaseAdopt, src); err != nil {
		return encodeMigAck(migAck{Status: wire.StatusUnavailable})
	}
	sn.migTrack(pid, migPhaseAdopt, src, sn.addr, 0, 0)
	sn.mu.Lock()
	ack := migAck{Status: wire.StatusOK, Floor: sn.stamp}
	sn.mu.Unlock()
	return encodeMigAck(ack)
}

// chunksOf converts a shipped-cell count to the chunk count it rode in.
func chunksOf(count uint64) int64 {
	return int64((count + transferChunk - 1) / transferChunk)
}
