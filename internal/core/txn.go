package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"tell/internal/btree"
	"tell/internal/det"
	"tell/internal/env"
	"tell/internal/mvcc"
	"tell/internal/relational"
	"tell/internal/store"
	"tell/internal/trace"
	"tell/internal/txlog"
	"tell/internal/wire"
)

// Abort reason codes carried on "abort" trace instants (Arg2).
const (
	AbortUser int64 = iota
	AbortWriteConflict
	AbortCommitConflict
	AbortDuplicateKey
	AbortError
)

// Transaction errors.
var (
	// ErrConflict: a write-write conflict was detected at commit time —
	// one of the transaction's LL/SC apply operations failed because
	// another transaction changed the record first (§4.1). All applied
	// updates have been rolled back.
	ErrConflict = errors.New("core: write-write conflict, transaction aborted")
	// ErrDuplicateKey: a primary-key uniqueness violation at commit.
	ErrDuplicateKey = errors.New("core: duplicate primary key, transaction aborted")
	// ErrTxnDone: the transaction has already committed or aborted.
	ErrTxnDone = errors.New("core: transaction already finished")
)

// TxnState is the life-cycle state of §4.3.
type TxnState int

const (
	StateRunning TxnState = iota
	StateCommitted
	StateAborted
)

// readEntry is one record in the transaction buffer (§5.5.1): the record as
// fetched (all versions), its LL stamp, and the decoded visible row.
type readEntry struct {
	rec    *mvcc.Record
	stamp  uint64 // 0 = record absent from store
	row    relational.Row
	exists bool
}

// writeIntent is one buffered update (§4.3 Running: "updates are buffered
// on the PN in the scope of the transaction").
type writeIntent struct {
	table    *TableInfo
	rid      uint64
	key      []byte
	newRow   relational.Row // nil = delete
	isInsert bool
	oldRow   relational.Row
	baseRec  *mvcc.Record // record as read; nil for inserts
	baseStmp uint64       // LL stamp at read; 0 for inserts
	baseVTID uint64       // visible version (tid) replaced; 0 for inserts
}

// Txn is one transaction executing on a PN under snapshot isolation.
type Txn struct {
	pn    *PN
	tid   uint64
	snap  *mvcc.Snapshot
	lav   uint64
	state TxnState
	// doomed is set when a conflict was already detected while running
	// (§4.1 scenario 1: the record carried a version newer than the
	// snapshot when we tried to write it). Commit will abort.
	doomed bool
	// rec is the history recorder captured at Begin (nil = off).
	rec TxnRecorder

	reads  map[string]*readEntry
	writes map[string]*writeIntent
	order  []string
}

// Begin starts a transaction: it contacts the commit manager for a tid,
// snapshot descriptor and lav (§4.3 step 1).
func (pn *PN) Begin(ctx env.Ctx) (*Txn, error) {
	sc := ctx.Trace()
	var bstart time.Duration
	if sc.R.Enabled() {
		bstart = ctx.Now()
	}
	ctx.Work(pn.cfg.Costs.Begin)
	res, err := pn.cm.Start(ctx)
	if err != nil {
		return nil, err
	}
	if sc.R.Enabled() {
		sc.R.Span(0, sc.Span, pn.node.Name(), "begin", bstart, int64(res.TID), 0)
	}
	pn.mu.Lock()
	pn.lastSnap = res.Snap.Clone()
	rec := pn.rec
	pn.mu.Unlock()
	if rec != nil {
		rec.RecBegin(res.TID, res.Snap.Clone())
	}
	return &Txn{
		pn:     pn,
		tid:    res.TID,
		snap:   res.Snap,
		lav:    res.Lav,
		rec:    rec,
		reads:  make(map[string]*readEntry),
		writes: make(map[string]*writeIntent),
	}, nil
}

// TID returns the transaction id (also the version number of its writes).
func (t *Txn) TID() uint64 { return t.tid }

// Snapshot returns the transaction's snapshot descriptor.
func (t *Txn) Snapshot() *mvcc.Snapshot { return t.snap }

// State returns the life-cycle state.
func (t *Txn) State() TxnState { return t.state }

// vmax returns the snapshot of the most recently started transaction on
// this PN (the Vmax of §5.5.2).
func (pn *PN) vmax() *mvcc.Snapshot {
	pn.mu.Lock()
	defer pn.mu.Unlock()
	if pn.lastSnap == nil {
		return mvcc.NewSnapshot(0)
	}
	return pn.lastSnap.Clone()
}

// readRecord returns the buffered or fetched record for key, consulting the
// transaction buffer and, depending on strategy, the PN's shared buffer.
func (t *Txn) readRecord(ctx env.Ctx, key []byte) (*readEntry, error) {
	ks := string(key)
	if re, ok := t.reads[ks]; ok {
		return re, nil
	}
	ctx.Work(t.pn.cfg.Costs.ReadOp)
	rec, stamp, err := t.pn.fetchRecord(ctx, key, t.snap)
	re := &readEntry{}
	switch err {
	case nil:
		re.rec = rec
		re.stamp = stamp
	case store.ErrNotFound:
		// Negative result is cached too (repeatable reads).
	default:
		return nil, err
	}
	t.reads[ks] = re
	return re, nil
}

// decodeVisible extracts the visible row of a read entry for this txn.
func (t *Txn) decodeVisible(table *TableInfo, re *readEntry) (relational.Row, bool, error) {
	if re.rec == nil {
		return nil, false, nil
	}
	v, ok := re.rec.Visible(t.snap)
	if !ok {
		return nil, false, nil
	}
	row, err := relational.DecodeRow(table.Schema, v.Data)
	if err != nil {
		return nil, false, err
	}
	return row, true, nil
}

// Read returns the row of (table, rid) visible in this snapshot. The
// transaction's own buffered writes win over stored state.
func (t *Txn) Read(ctx env.Ctx, table *TableInfo, rid uint64) (relational.Row, bool, error) {
	if t.state != StateRunning {
		return nil, false, ErrTxnDone
	}
	key := relational.RecordKey(table.Schema.ID, rid)
	if w, ok := t.writes[string(key)]; ok {
		if w.newRow == nil {
			return nil, false, nil
		}
		return w.newRow, true, nil
	}
	re, err := t.readRecord(ctx, key)
	if err != nil {
		return nil, false, err
	}
	row, found, err := t.decodeVisible(table, re)
	if sc := ctx.Trace(); sc.R.Enabled() {
		var f int64
		if found {
			f = 1
		}
		sc.R.Instant(sc.Span, t.pn.node.Name(), "read", int64(rid), f)
	}
	if t.rec != nil && err == nil {
		var vtid uint64
		if re.rec != nil {
			if v, ok := re.rec.Visible(t.snap); ok {
				vtid = v.TID // deleted versions count: the read observed them
			}
		}
		t.rec.RecRead(t.tid, key, vtid, found)
	}
	return row, found, err
}

// Insert buffers a new row and returns its rid. The write is applied at
// commit; the new version's number is the transaction's tid.
func (t *Txn) Insert(ctx env.Ctx, table *TableInfo, row relational.Row) (uint64, error) {
	if t.state != StateRunning {
		return 0, ErrTxnDone
	}
	if _, err := relational.EncodeRow(table.Schema, row); err != nil {
		return 0, err // type check up front
	}
	ctx.Work(t.pn.cfg.Costs.WriteOp)
	rid, err := t.pn.allocRid(ctx, table.Schema.ID)
	if err != nil {
		return 0, err
	}
	key := relational.RecordKey(table.Schema.ID, rid)
	w := &writeIntent{table: table, rid: rid, key: key, newRow: row, isInsert: true}
	t.writes[string(key)] = w
	t.order = append(t.order, string(key))
	return rid, nil
}

// Update buffers a new version of (table, rid). It reads the current
// visible row first (the load-link); found is false when the row is not
// visible in this snapshot.
func (t *Txn) Update(ctx env.Ctx, table *TableInfo, rid uint64, newRow relational.Row) (found bool, err error) {
	return t.write(ctx, table, rid, newRow)
}

// Delete buffers a deletion of (table, rid).
func (t *Txn) Delete(ctx env.Ctx, table *TableInfo, rid uint64) (found bool, err error) {
	return t.write(ctx, table, rid, nil)
}

func (t *Txn) write(ctx env.Ctx, table *TableInfo, rid uint64, newRow relational.Row) (bool, error) {
	if t.state != StateRunning {
		return false, ErrTxnDone
	}
	if newRow != nil {
		if _, err := relational.EncodeRow(table.Schema, newRow); err != nil {
			return false, err
		}
	}
	ctx.Work(t.pn.cfg.Costs.WriteOp)
	key := relational.RecordKey(table.Schema.ID, rid)
	ks := string(key)
	if w, ok := t.writes[ks]; ok {
		// Updating our own buffered write: modify the new version in
		// place (§5.1: "further updates to the record directly modify
		// the newly added version").
		if w.newRow == nil && !w.isInsert {
			return false, nil // we deleted it earlier
		}
		if w.isInsert && newRow == nil {
			// Deleting our own uncommitted insert: the write intent
			// simply disappears — nothing was ever applied.
			delete(t.writes, ks)
			for i, o := range t.order {
				if o == ks {
					t.order = append(t.order[:i], t.order[i+1:]...)
					break
				}
			}
			return true, nil
		}
		w.newRow = newRow
		return true, nil
	}
	re, err := t.readRecord(ctx, key)
	if err != nil {
		return false, err
	}
	oldRow, visible, err := t.decodeVisible(table, re)
	if err != nil {
		return false, err
	}
	if !visible {
		return false, nil
	}
	// §4.1, scenario 1: another transaction already applied a version we
	// cannot see. Writing would lose its update (the LL stamp is current,
	// so the store-conditional alone would not catch it). Conflict now.
	// Every version must be checked, not just the highest tid: with
	// several commit managers handing out disjoint tid ranges, commit
	// order does not follow tid order, so an invisible version can sit
	// below the visible one.
	if !t.pn.cfg.SkipWriteValidation {
		for i := range re.rec.Versions {
			if vt := re.rec.Versions[i].TID; vt != t.tid && !t.snap.Contains(vt) {
				t.doomed = true
				if sc := ctx.Trace(); sc.R.Enabled() {
					sc.R.Instant(sc.Span, t.pn.node.Name(), "abort",
						int64(t.tid), AbortWriteConflict)
				}
				return false, ErrConflict
			}
		}
	}
	if sc := ctx.Trace(); sc.R.Enabled() {
		sc.R.Instant(sc.Span, t.pn.node.Name(), "write", int64(rid), 0)
	}
	var baseVTID uint64
	if v, ok := re.rec.Visible(t.snap); ok {
		baseVTID = v.TID
	}
	w := &writeIntent{
		table:    table,
		rid:      rid,
		key:      key,
		newRow:   newRow,
		oldRow:   oldRow,
		baseRec:  re.rec,
		baseStmp: re.stamp,
		baseVTID: baseVTID,
	}
	t.writes[ks] = w
	t.order = append(t.order, ks)
	return true, nil
}

// Abort rolls the transaction back. For a manually aborted transaction no
// updates have been applied yet, so only the commit manager is notified
// (§4.3 step 4b).
func (t *Txn) Abort(ctx env.Ctx) error {
	if t.state != StateRunning {
		return ErrTxnDone
	}
	if sc := ctx.Trace(); sc.R.Enabled() {
		sc.R.Instant(sc.Span, t.pn.node.Name(), "abort", int64(t.tid), AbortUser)
	}
	t.state = StateAborted
	t.pn.mu.Lock()
	t.pn.aborts++
	t.pn.mu.Unlock()
	if t.rec != nil {
		t.rec.RecAbort(t.tid)
	}
	return t.pn.cm.Aborted(ctx, t.tid)
}

// Commit runs the Try-Commit/Commit protocol of §4.3:
//
//  1. append a log entry with the write set,
//  2. apply all buffered updates with LL/SC conditional writes (batched);
//     any failure is a write-write conflict → roll back and abort,
//  3. alter the indexes,
//  4. set the commit flag in the log and notify the commit manager.
func (t *Txn) Commit(ctx env.Ctx) error {
	if t.state != StateRunning {
		return ErrTxnDone
	}
	sc := ctx.Trace()
	if sc.R.Enabled() {
		cstart := ctx.Now()
		defer func() {
			var committed int64
			if t.state == StateCommitted {
				committed = 1
			}
			sc.R.Span(0, sc.Span, t.pn.node.Name(), "txn-commit", cstart,
				int64(t.tid), committed)
		}()
	}
	if t.doomed {
		// A conflict was detected while running; nothing was applied.
		t.finishAbort(ctx, AbortWriteConflict)
		return ErrConflict
	}
	if len(t.writes) == 0 {
		t.state = StateCommitted
		t.pn.mu.Lock()
		t.pn.commits++
		t.pn.mu.Unlock()
		if t.rec != nil {
			t.rec.RecCommit(t.tid, nil)
		}
		return t.pn.cm.Committed(ctx, t.tid)
	}

	// 1. Try-Commit: log entry first — recovery depends on it (§4.4.1).
	entry := &txlog.Entry{TID: t.tid, PN: t.pn.cfg.ID, Timestamp: ctx.Now()}
	for _, ks := range t.order {
		entry.WriteSet = append(entry.WriteSet, t.writes[ks].key)
	}
	if err := t.pn.log.Append(ctx, entry); err != nil {
		t.Abort(ctx)
		return fmt.Errorf("core: txlog append: %w", err)
	}

	// SBVS: invalidate version-set entries before applying data so no
	// reader can validate a stale cache against an already-changed record.
	if t.pn.cfg.Buffer == SBVS {
		if err := t.writeVersionSets(ctx); err != nil {
			t.Abort(ctx)
			return err
		}
	}

	// 2. Apply updates with one batched request set.
	ops := make([]wire.Op, 0, len(t.order))
	newRecs := make([]*mvcc.Record, len(t.order))
	for i, ks := range t.order {
		w := t.writes[ks]
		ctx.Work(t.pn.cfg.Costs.CommitOp)
		var rec *mvcc.Record
		if w.isInsert {
			data, _ := relational.EncodeRow(w.table.Schema, w.newRow)
			rec = mvcc.NewRecord(t.tid, data)
		} else {
			if w.newRow == nil {
				rec = w.baseRec.WithVersion(t.tid, true, nil)
			} else {
				data, _ := relational.EncodeRow(w.table.Schema, w.newRow)
				rec = w.baseRec.WithVersion(t.tid, false, data)
			}
			// Eager GC piggybacks on the update (§5.4).
			if pruned, changed, _ := rec.GC(t.lav); changed {
				rec = pruned
			}
		}
		newRecs[i] = rec
		code := wire.OpCondPut
		if t.pn.cfg.SkipWriteValidation {
			// Negative-control mode: blind writes, no LL/SC conflict
			// detection. See Config.SkipWriteValidation.
			code = wire.OpPut
		}
		ops = append(ops, wire.Op{
			Code:  code,
			Key:   w.key,
			Val:   rec.Encode(),
			Stamp: w.baseStmp,
		})
	}
	if sc.R.Enabled() {
		sc.R.Instant(sc.Span, t.pn.node.Name(), "validate", int64(t.tid), int64(len(ops)))
	}
	results, err := t.pn.sc.Exec(ctx, ops)
	applied := make([]int, 0, len(ops))
	if err != nil {
		// Outcome unknown for every write: any of them may have applied.
		// Rolling back a version that is not there is a no-op.
		for i := range ops {
			applied = append(applied, i)
		}
		t.abortConflict(ctx, sc, applied, AbortError)
		return err
	}
	conflict := false
	for i, res := range results {
		switch res.Status {
		case wire.StatusOK:
			applied = append(applied, i)
			// Remember the new stamp for buffer write-through.
			t.writes[t.order[i]].baseStmp = res.Stamp
		case wire.StatusConflict:
			// A conditional put that was retried after a lost response is
			// indistinguishable from a genuine write-write conflict: the
			// first attempt may have applied, moving the stamp so the
			// retry fails. Read the record back — if our own version is
			// there, the update applied and this is no conflict. First-try
			// conflicts are unambiguous and skip the read-back.
			if res.WasRetried() && t.ownVersionApplied(ctx, t.order[i]) {
				applied = append(applied, i)
			} else {
				conflict = true
			}
		default:
			// Neither applied nor refused (the partition failed over or
			// the response was lost): the write may be in the store, so it
			// is rolled back with the applied ones.
			applied = append(applied, i)
			conflict = true
		}
	}
	if conflict {
		t.abortConflict(ctx, sc, applied, AbortCommitConflict)
		return ErrConflict
	}

	// 3. Alter the indexes (§4.3: "next, the indexes are altered to
	// reflect the updates").
	if err := t.maintainIndexes(ctx); err != nil {
		if err == ErrDuplicateKey {
			t.abortConflict(ctx, sc, applied, AbortDuplicateKey)
			return ErrDuplicateKey
		}
		// Index infrastructure failure: record data is applied, so the
		// safest course is still abort-with-rollback.
		t.abortConflict(ctx, sc, applied, AbortError)
		return err
	}

	// Shared-buffer write-through (§5.5.2).
	if t.pn.shared != nil {
		vm := t.pn.vmax()
		for i, ks := range t.order {
			w := t.writes[ks]
			b := vm.Clone()
			b.Add(t.tid)
			t.pn.shared.writeThrough(string(w.key), newRecs[i], w.baseStmp, b)
		}
	}

	// 4. Commit flag, then the commit manager. Committed() blocks until
	// the manager has acknowledged the finish — under the coalesced CM
	// protocol the note rides in a grouped message shared with other
	// workers' starts and finishes, but the visibility guarantee is
	// unchanged: any transaction started after Commit() returns sees this
	// one as committed.
	if err := t.pn.log.MarkCommitted(ctx, t.tid); err != nil {
		// The flag could not be set (store unavailable). The updates are
		// applied; recovery would roll this transaction back, so report
		// failure and abort bookkeeping-wise.
		t.abortConflict(ctx, sc, applied, AbortError)
		return err
	}
	t.state = StateCommitted
	t.pn.mu.Lock()
	t.pn.commits++
	t.pn.mu.Unlock()
	if t.rec != nil {
		wrs := make([]WriteRec, 0, len(t.order))
		for _, ks := range t.order {
			w := t.writes[ks]
			wrs = append(wrs, WriteRec{
				Key:         w.key,
				BaseVersion: w.baseVTID,
				Row:         w.newRow,
				Insert:      w.isInsert,
			})
		}
		t.rec.RecCommit(t.tid, wrs)
	}
	return t.pn.cm.Committed(ctx, t.tid)
}

func (t *Txn) finishAbort(ctx env.Ctx, reason int64) {
	if sc := ctx.Trace(); sc.R.Enabled() {
		sc.R.Instant(sc.Span, t.pn.node.Name(), "abort", int64(t.tid), reason)
	}
	t.state = StateAborted
	t.pn.mu.Lock()
	t.pn.aborts++
	t.pn.mu.Unlock()
	if t.rec != nil {
		t.rec.RecAbort(t.tid)
	}
	t.pn.cm.Aborted(ctx, t.tid)
}

// abortConflict rolls back the applied updates and finishes the abort,
// charging all time the cleanup consumes (rollback round trips, commit
// manager notification) to the conflict component of the transaction's
// latency breakdown.
func (t *Txn) abortConflict(ctx env.Ctx, sc *trace.Scope, applied []int, reason int64) {
	if sc.Agg != nil {
		prev := sc.Agg.Redirect
		sc.Agg.Redirect = trace.CompConflict
		defer func() { sc.Agg.Redirect = prev }()
	}
	t.rollbackApplied(ctx, applied)
	t.finishAbort(ctx, reason)
}

// rollbackApplied reverts the applied subset of this transaction's updates:
// the version with number tid is removed from each record (§4.3 step 4b).
// Once the abort is reported the tid enters every later snapshot, so a
// version that outlives it would be read as committed data; a rollback that
// hits a storage fail-over is therefore retried until the partition is back
// (for up to 1 s per transaction — a fail-over takes a few failure-detector
// rounds).
func (t *Txn) rollbackApplied(ctx env.Ctx, applied []int) {
	retries := 0
	for _, i := range applied {
		w := t.writes[t.order[i]]
		for txlog.RollbackVersion(ctx, t.pn.sc, w.key, t.tid) != nil && retries < 100 {
			retries++
			ctx.Sleep(10 * time.Millisecond)
		}
	}
}

// ownVersionApplied reads a record back after a conditional-put conflict
// and reports whether this transaction's version is already present — the
// signature of a retried apply whose first response was lost in transit.
// The current stamp is captured so a later rollback still targets the
// record correctly.
func (t *Txn) ownVersionApplied(ctx env.Ctx, ks string) bool {
	w := t.writes[ks]
	raw, stamp, err := t.pn.sc.Get(ctx, w.key)
	if err != nil {
		return false
	}
	rec, err := mvcc.Decode(raw)
	if err != nil {
		return false
	}
	if _, ok := rec.Get(t.tid); !ok {
		return false
	}
	w.baseStmp = stamp
	return true
}

// maintainIndexes inserts the index entries required by this transaction's
// writes. Indexes are version-unaware (§5.3.2): new entries appear only for
// inserts and for updates that changed an indexed key; obsolete entries are
// garbage collected by readers (§5.4). The entries are grouped by tree and
// each tree takes its share in one batched insert, which writes every leaf
// once (§5.1, §5.3); the trees run concurrently so the request batcher
// coalesces their traffic.
func (t *Txn) maintainIndexes(ctx env.Ctx) error {
	var batches []*indexBatch
	add := func(tree *btree.Tree, pkOf *TableInfo, key []byte, rid uint64) {
		i := slices.IndexFunc(batches, func(b *indexBatch) bool { return b.tree == tree })
		if i < 0 {
			i = len(batches)
			batches = append(batches, &indexBatch{tree: tree, pkOf: pkOf})
		}
		batches[i].keys = append(batches[i].keys, key)
		batches[i].vals = append(batches[i].vals, relational.RidToIndexVal(rid))
	}
	for _, ks := range t.order {
		w := t.writes[ks]
		ctx.Work(t.pn.cfg.Costs.IndexOp)
		if w.isInsert {
			add(w.table.PK, w.table, w.table.PKKey(w.newRow), w.rid)
			for _, name := range det.Keys(w.table.Sec) {
				ix := t.secSchema(w.table, name)
				add(w.table.Sec[name], nil, relational.AppendRid(relational.IndexKeyFromRow(w.newRow, ix.Cols), w.rid), w.rid)
			}
			continue
		}
		if w.newRow == nil {
			continue // deletes leave entries for the reader GC
		}
		// Updates: insert entries only for changed indexed keys.
		for _, name := range det.Keys(w.table.Sec) {
			ix := t.secSchema(w.table, name)
			oldKey := relational.IndexKeyFromRow(w.oldRow, ix.Cols)
			newKey := relational.IndexKeyFromRow(w.newRow, ix.Cols)
			if string(oldKey) == string(newKey) {
				continue
			}
			add(w.table.Sec[name], nil, relational.AppendRid(newKey, w.rid), w.rid)
		}
		oldPK := w.table.PKKey(w.oldRow)
		newPK := w.table.PKKey(w.newRow)
		if string(oldPK) != string(newPK) {
			add(w.table.PK, w.table, newPK, w.rid)
		}
	}
	return t.parallelIndexOps(ctx, batches)
}

// indexBatch is one tree's share of a commit's index entries; the values
// are the entries' rids. pkOf is set when the tree is that table's primary
// key index, whose inserts are checked for duplicates.
type indexBatch struct {
	tree       *btree.Tree
	pkOf       *TableInfo
	keys, vals [][]byte
}

// insertBatch inserts a batch into its tree. On a primary-key tree, a key
// that already existed belongs to another rid: if that rid's record is
// alive this is a duplicate-key violation; otherwise the entry is stale and
// is replaced.
func (t *Txn) insertBatch(ctx env.Ctx, b *indexBatch) error {
	existed, err := b.tree.InsertMany(ctx, b.keys, b.vals)
	if err != nil || b.pkOf == nil {
		return err
	}
	for i, ex := range existed {
		if !ex {
			continue
		}
		dup, err := t.pkAlive(ctx, b.pkOf, b.keys[i], relational.RidFromIndexVal(b.vals[i]))
		if err != nil {
			return err
		}
		if dup {
			return ErrDuplicateKey
		}
		if _, err := b.tree.Update(ctx, b.keys[i], b.vals[i]); err != nil {
			return err
		}
	}
	return nil
}

// pkAlive reports whether the existing PK entry points at a record that
// still has any version (owned by a rid other than ours).
func (t *Txn) pkAlive(ctx env.Ctx, table *TableInfo, pkKey []byte, ourRid uint64) (bool, error) {
	val, ok, err := table.PK.Lookup(ctx, pkKey)
	if err != nil {
		return false, err
	}
	if !ok {
		return false, nil
	}
	rid := relational.RidFromIndexVal(val)
	if rid == ourRid {
		return false, nil
	}
	key := relational.RecordKey(table.Schema.ID, rid)
	_, _, err = t.pn.sc.Get(ctx, key)
	if err == store.ErrNotFound {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// secSchema finds the index schema by name.
func (t *Txn) secSchema(table *TableInfo, name string) *relational.IndexSchema {
	for i := range table.Schema.Indexes {
		if table.Schema.Indexes[i].Name == name {
			return &table.Schema.Indexes[i]
		}
	}
	panic("core: unknown index " + name)
}

// writeVersionSets updates the per-cache-unit version-set entries in the
// store before the data is applied (§5.5.3).
func (t *Txn) writeVersionSets(ctx env.Ctx) error {
	vm := t.pn.vmax()
	vm.Add(t.tid)
	units := make(map[string]bool)
	for _, ks := range t.order {
		w := t.writes[ks]
		units[string(versionSetKey(w.table.Schema.ID, w.rid, t.pn.cfg.CacheUnitSize))] = true
	}
	unitKeys := det.Keys(units)
	ops := make([]wire.Op, 0, len(unitKeys))
	for _, u := range unitKeys {
		ops = append(ops, wire.Op{Code: wire.OpPut, Key: []byte(u), Val: encodeVS(vm)})
	}
	res, err := t.pn.sc.Exec(ctx, ops)
	if err != nil {
		return err
	}
	for _, r := range res {
		if r.Status != wire.StatusOK {
			return fmt.Errorf("core: version-set write failed: %v", r.Status)
		}
	}
	// Invalidate our own buffered units too.
	if t.pn.shared != nil {
		for _, u := range unitKeys {
			t.pn.shared.invalidateUnit(u)
		}
	}
	return nil
}
