package core

import (
	"bytes"

	"tell/internal/env"
	"tell/internal/mvcc"
	"tell/internal/relational"
)

// LookupPK resolves a primary key to its visible row: a read round of one
// PKRead. Indexes are version-unaware (§5.3.2), so the fetched record is
// validated against the transaction's snapshot; an entry that no longer
// matches any collectable version is garbage collected on the way (§5.4:
// "index GC is performed during read operations").
func (t *Txn) LookupPK(ctx env.Ctx, table *TableInfo, pkVals ...relational.Value) (rid uint64, row relational.Row, found bool, err error) {
	return t.readOne(ctx, PKRead(table, pkVals...))
}

// readOne runs a read round of r alone and returns its first visible row.
func (t *Txn) readOne(ctx env.Ctx, r Read) (rid uint64, row relational.Row, found bool, err error) {
	rs := []Read{r}
	if err := t.ReadRound(ctx, rs); err != nil {
		return 0, nil, false, err
	}
	rid, row, found = rs[0].Row()
	return rid, row, found, nil
}

// scanOne runs a read round of r alone, handing its visible rows to fn.
func (t *Txn) scanOne(ctx env.Ctx, r Read, fn func(e IndexEntry) bool) error {
	r.fn = fn
	return t.ReadRound(ctx, []Read{r})
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
	return t.scanOne(ctx, RangeRead(table, loVals, hiVals), fn)
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
// hiVals).
func (t *Txn) ScanIndex(ctx env.Ctx, table *TableInfo, index string, loVals, hiVals []relational.Value, fn func(e IndexEntry) bool) error {
	lo, hi := keyRange(loVals, hiVals)
	return t.scanOne(ctx, indexRead(table, index, lo, hi), fn)
}

// ScanIndexPrefix visits all rows whose indexed columns equal the given
// prefix values.
func (t *Txn) ScanIndexPrefix(ctx env.Ctx, table *TableInfo, index string, prefix []relational.Value, fn func(e IndexEntry) bool) error {
	return t.scanOne(ctx, IndexPrefixRead(table, index, prefix), fn)
}

func errUnknownIndex(table *TableInfo, index string) error {
	return &UnknownIndexError{Table: table.Schema.Name, Index: index}
}

// UnknownIndexError reports a scan over a non-existent index.
type UnknownIndexError struct{ Table, Index string }

func (e *UnknownIndexError) Error() string {
	return "core: table " + e.Table + " has no index " + e.Index
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
