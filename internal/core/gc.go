package core

import (
	"tell/internal/env"
	"tell/internal/mvcc"
	"tell/internal/relational"
)

// LazyGCResult summarizes one background garbage-collection pass.
type LazyGCResult struct {
	RecordsScanned int
	RecordsPruned  int
	RecordsRemoved int
	LogTruncated   int
}

// LazyGC runs one background garbage-collection pass (§5.4's second, lazy
// strategy, "useful for rarely accessed records"): every record of every
// known table is pruned against the current lowest active version number,
// and transaction-log entries below the lav checkpoint are dropped. Nothing
// runs it periodically: no deployment truncates its transaction log.
func (pn *PN) LazyGC(ctx env.Ctx, tables []*TableInfo) (LazyGCResult, error) {
	var res LazyGCResult
	// Learn the current lav by asking the commit manager for a snapshot
	// and immediately finishing the probe transaction.
	start, err := pn.cm.Start(ctx)
	if err != nil {
		return res, err
	}
	lav := start.Lav
	pn.cm.Aborted(ctx, start.TID)

	for _, table := range tables {
		lo, hi := relational.RecordPrefix(table.Schema.ID)
		pairs, err := pn.sc.Scan(ctx, lo, hi, 0, false)
		if err != nil {
			return res, err
		}
		for _, p := range pairs {
			res.RecordsScanned++
			rec, err := mvcc.Decode(p.Val)
			if err != nil {
				continue
			}
			pruned, changed, empty := rec.GC(lav)
			if !changed {
				continue
			}
			if empty {
				// The record's only surviving version is a delete
				// marker below the lav: remove the record. Dangling
				// index entries are collected by readers.
				if err := pn.sc.Delete(ctx, p.Key, p.Stamp); err == nil {
					res.RecordsRemoved++
				}
				continue
			}
			// Conditional write: interference means someone updated the
			// record (and GC'd it eagerly); skip.
			if _, err := pn.sc.CondPut(ctx, p.Key, pruned.Encode(), p.Stamp); err == nil {
				res.RecordsPruned++
			}
		}
	}
	// The lav acts as a rolling checkpoint for the transaction log
	// (§4.4.1); entries below it can never be needed by recovery again.
	if n, err := pn.log.Truncate(ctx, lav); err == nil {
		res.LogTruncated = n
	}
	return res, nil
}
