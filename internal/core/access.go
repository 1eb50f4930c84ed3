package core

import (
	"bytes"

	"tell/internal/env"
	"tell/internal/mvcc"
	"tell/internal/relational"
)

// LookupPK resolves a primary key to its visible row. Indexes are
// version-unaware (§5.3.2), so the fetched record is validated against the
// transaction's snapshot; an entry that no longer matches any collectable
// version is garbage collected on the way (§5.4: "index GC is performed
// during read operations").
func (t *Txn) LookupPK(ctx env.Ctx, table *TableInfo, pkVals ...relational.Value) (rid uint64, row relational.Row, found bool, err error) {
	if t.state != StateRunning {
		return 0, nil, false, ErrTxnDone
	}
	ctx.Work(t.pn.cfg.Costs.IndexOp)
	pkKey := relational.EncodeKey(pkVals...)
	val, ok, err := table.PK.Lookup(ctx, pkKey)
	if err != nil {
		return 0, nil, false, err
	}
	if !ok {
		return 0, nil, false, nil
	}
	rid = relational.RidFromIndexVal(val)
	row, found, err = t.Read(ctx, table, rid)
	if err != nil {
		return 0, nil, false, err
	}
	if !found {
		// Unnecessary read (§5.3.2) — check whether the entry is
		// altogether obsolete and collect it if so.
		t.maybeGCEntry(ctx, table.PK, pkKey, table, table.Schema.PKCols, pkKey, rid)
		return 0, nil, false, nil
	}
	return rid, row, true, nil
}

// IndexEntry is one (rid, row) produced by an index scan.
type IndexEntry struct {
	Rid uint64
	Row relational.Row
}

// ScanPK visits rows whose primary keys fall in [loVals, hiVals) in key
// order. fn returning false stops the scan. hiVals nil means "to the end of
// the loVals prefix is NOT implied" — pass an explicit upper bound or nil
// for unbounded.
func (t *Txn) ScanPK(ctx env.Ctx, table *TableInfo, loVals, hiVals []relational.Value, fn func(e IndexEntry) bool) error {
	lo, hi := keyRange(loVals, hiVals)
	return t.scanTree(ctx, table, table.PK, table.Schema.PKCols, lo, hi, false, 0, fn)
}

// firstPage is FirstPK's first page size. On TPC-C delivery the lowest
// entry is usually the row the previous delivery deleted, still waiting for
// index GC (§5.4), so a page of one would take a second round trip on most
// scans; four covers nearly all of them, and an extra prefetched record
// costs far less than an extra page.
const firstPage = 4

// FirstPK returns the lowest-keyed row visible in [loVals, hiVals) — ORDER
// BY pk LIMIT 1. It fetches records a page at a time, so entries past the
// first visible row cost neither an index step nor a record read beyond the
// page that holds it.
func (t *Txn) FirstPK(ctx env.Ctx, table *TableInfo, loVals, hiVals []relational.Value) (rid uint64, row relational.Row, found bool, err error) {
	lo, hi := keyRange(loVals, hiVals)
	err = t.scanTree(ctx, table, table.PK, table.Schema.PKCols, lo, hi, false, firstPage, func(e IndexEntry) bool {
		rid, row, found = e.Rid, e.Row, true
		return false
	})
	return rid, row, found, err
}

// keyRange encodes a scan's bounds; nil hiVals leaves the range unbounded.
func keyRange(loVals, hiVals []relational.Value) (lo, hi []byte) {
	lo = relational.EncodeKey(loVals...)
	if hiVals != nil {
		hi = relational.EncodeKey(hiVals...)
	}
	return lo, hi
}

// ScanIndex visits rows via the named secondary index within [loVals,
// hiVals). Secondary entries carry a rid suffix, making duplicates
// distinct.
func (t *Txn) ScanIndex(ctx env.Ctx, table *TableInfo, index string, loVals, hiVals []relational.Value, fn func(e IndexEntry) bool) error {
	tree, ok := table.Sec[index]
	if !ok {
		return errUnknownIndex(table, index)
	}
	var cols []int
	for i := range table.Schema.Indexes {
		if table.Schema.Indexes[i].Name == index {
			cols = table.Schema.Indexes[i].Cols
		}
	}
	lo, hi := keyRange(loVals, hiVals)
	return t.scanTree(ctx, table, tree, cols, lo, hi, true, 0, fn)
}

// ScanIndexPrefix visits all rows whose indexed columns equal the given
// prefix values.
func (t *Txn) ScanIndexPrefix(ctx env.Ctx, table *TableInfo, index string, prefix []relational.Value, fn func(e IndexEntry) bool) error {
	tree, ok := table.Sec[index]
	if !ok {
		return errUnknownIndex(table, index)
	}
	var cols []int
	for i := range table.Schema.Indexes {
		if table.Schema.Indexes[i].Name == index {
			cols = table.Schema.Indexes[i].Cols
		}
	}
	lo := relational.EncodeKey(prefix...)
	hi := relational.PrefixEnd(lo)
	return t.scanTree(ctx, table, tree, cols, lo, hi, true, 0, fn)
}

func errUnknownIndex(table *TableInfo, index string) error {
	return &UnknownIndexError{Table: table.Schema.Name, Index: index}
}

// UnknownIndexError reports a scan over a non-existent index.
type UnknownIndexError struct{ Table, Index string }

func (e *UnknownIndexError) Error() string {
	return "core: table " + e.Table + " has no index " + e.Index
}

// scanTree drives an index scan: walk entries, resolve rids, decode the
// visible version, and garbage collect obsolete entries as encountered.
//
// page 0 takes every entry in the range and fetches all their records with
// one batched request (§5.1). page n > 0 stops the walk after n entries and
// fetches only those; if fn still wants rows and the page was full, the walk
// resumes just past the page's last key with a doubled page. A scan that
// stops early thus pays index steps and record reads for the pages it used
// only. Stale entries (§5.3.2) count toward a page, which is why it grows.
func (t *Txn) scanTree(ctx env.Ctx, table *TableInfo, tree treeHandle, cols []int, lo, hi []byte, ridSuffix bool, page int, fn func(e IndexEntry) bool) error {
	if t.state != StateRunning {
		return ErrTxnDone
	}
	type hit struct {
		entryKey []byte
		rid      uint64
	}
	var hits []hit
	for {
		hits = hits[:0]
		limit := page // a copy, so the closure does not move page to the heap
		err := tree.Scan(ctx, lo, hi, func(k, v []byte) bool {
			ctx.Work(t.pn.cfg.Costs.IndexOp)
			hits = append(hits, hit{entryKey: append([]byte(nil), k...), rid: relational.RidFromIndexVal(v)})
			return limit == 0 || len(hits) < limit
		})
		if err != nil {
			return err
		}
		// Fetch the page's records with one batched request (§5.1).
		rids := make([]uint64, 0, len(hits))
		for _, h := range hits {
			rids = append(rids, h.rid)
		}
		if err := t.prefetch(ctx, table, rids); err != nil {
			return err
		}
		for _, h := range hits {
			row, found, err := t.Read(ctx, table, h.rid)
			if err != nil {
				return err
			}
			prefix := h.entryKey
			if ridSuffix && len(prefix) >= 8 {
				prefix = prefix[:len(prefix)-8]
			}
			// Version-unaware indexes can return rows whose current
			// value no longer matches the scanned range (the entry
			// belongs to an older version). Filter against the visible
			// row.
			if !found || !bytes.Equal(relational.IndexKeyFromRow(row, cols), prefix) {
				t.maybeGCEntry(ctx, tree, h.entryKey, table, cols, prefix, h.rid)
				continue
			}
			if !fn(IndexEntry{Rid: h.rid, Row: row}) {
				return nil
			}
		}
		if page == 0 || len(hits) < page {
			return nil
		}
		// key+0x00 is the least key above the page's last one.
		last := hits[len(hits)-1].entryKey
		lo = append(last[:len(last):len(last)], 0)
		page *= 2
	}
}

// treeHandle is the slice of the B+tree API the scanner needs; it lets
// tests substitute instrumented trees.
type treeHandle interface {
	Scan(ctx env.Ctx, lo, hi []byte, fn func(k, v []byte) bool) error
	Lookup(ctx env.Ctx, key []byte) ([]byte, bool, error)
	Delete(ctx env.Ctx, key []byte) (bool, error)
}

// maybeGCEntry removes an index entry whose key no longer matches any
// version that could still be read: the Va \ G = ∅ rule of §5.4.
func (t *Txn) maybeGCEntry(ctx env.Ctx, tree treeHandle, entryKey []byte, table *TableInfo, cols []int, keyPrefix []byte, rid uint64) {
	re, err := t.readRecord(ctx, relational.RecordKey(table.Schema.ID, rid))
	if err != nil {
		return
	}
	if !entryObsolete(table.Schema, cols, keyPrefix, re.rec, t.lav) {
		return
	}
	// Consistent removal via the tree's LL/SC update; failures are fine —
	// "if the LL/SC operation fails, GC is retried with the next read".
	tree.Delete(ctx, entryKey)
}

// entryObsolete reports whether no surviving (non-collectable) version of
// the record carries the indexed key: Va \ G = ∅ (§5.4).
func entryObsolete(schema *relational.TableSchema, cols []int, keyPrefix []byte, rec *mvcc.Record, lav uint64) bool {
	if rec == nil || len(rec.Versions) == 0 {
		return true // record is gone entirely
	}
	// G = everything applied before the GC survivor (mvcc.SurvivorIdx):
	// versions are in apply order, so collectable means positioned after
	// the newest-applied version with TID ≤ lav.
	surv := rec.SurvivorIdx(lav)
	live := rec.Versions
	if surv >= 0 {
		live = rec.Versions[:surv+1]
	}
	for i := range live {
		v := &live[i]
		if v.Deleted {
			continue
		}
		row, err := relational.DecodeRow(schema, v.Data)
		if err != nil {
			return false // be conservative on decode trouble
		}
		if bytes.Equal(relational.IndexKeyFromRow(row, cols), keyPrefix) {
			return false // a live version still carries this key
		}
	}
	return true
}

// ScanTable streams every visible row of a table directly from the record
// key space — the full-table-scan path of analytical queries (§5.2: the
// records are shipped to the query).
func (t *Txn) ScanTable(ctx env.Ctx, table *TableInfo, fn func(rid uint64, row relational.Row) bool) error {
	if t.state != StateRunning {
		return ErrTxnDone
	}
	lo, hi := relational.RecordPrefix(table.Schema.ID)
	pairs, err := t.pn.sc.Scan(ctx, lo, hi, 0, false)
	if err != nil {
		return err
	}
	for _, p := range pairs {
		ctx.Work(t.pn.cfg.Costs.ReadOp)
		rid, ok := relational.RidFromRecordKey(p.Key)
		if !ok {
			continue
		}
		// The transaction's own writes shadow stored rows.
		if w, shadowed := t.writes[string(p.Key)]; shadowed {
			if w.newRow != nil && !fn(rid, w.newRow) {
				return nil
			}
			continue
		}
		rec, err := mvcc.Decode(p.Val)
		if err != nil {
			return err
		}
		v, visible := rec.Visible(t.snap)
		if !visible {
			continue
		}
		row, err := relational.DecodeRow(table.Schema, v.Data)
		if err != nil {
			return err
		}
		if !fn(rid, row) {
			return nil
		}
	}
	return nil
}
