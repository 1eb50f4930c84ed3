package core

import (
	"sync"
	"time"

	"tell/internal/env"
	"tell/internal/mvcc"
	"tell/internal/relational"
	"tell/internal/trace"
	"tell/internal/wire"
)

// This file implements the transaction-side of the paper's aggressive
// batching (§5.1): multi-record reads travel in single requests, and the
// independent B+tree operations of commit-time index maintenance run
// concurrently so the PN-wide request batcher can coalesce them.

// prefetch loads the records for the given rids into the transaction buffer
// with one batched storage request (records already buffered are skipped).
// Only the direct fetch path batches; the shared-buffer strategies fall
// back to their per-record validation protocols.
func (t *Txn) prefetch(ctx env.Ctx, table *TableInfo, rids []uint64) error {
	if t.pn.cfg.Buffer != TB {
		for _, rid := range rids {
			if _, err := t.readRecord(ctx, relational.RecordKey(table.Schema.ID, rid)); err != nil {
				return err
			}
		}
		return nil
	}
	var ops []wire.Op
	var keys []string
	for _, rid := range rids {
		key := relational.RecordKey(table.Schema.ID, rid)
		ks := string(key)
		if _, ok := t.reads[ks]; ok {
			continue
		}
		if _, ok := t.writes[ks]; ok {
			continue
		}
		ops = append(ops, wire.Op{Code: wire.OpGet, Key: key})
		keys = append(keys, ks)
	}
	if len(ops) == 0 {
		return nil
	}
	ctx.Work(time.Duration(len(ops)) * t.pn.cfg.Costs.ReadOp)
	results, err := t.pn.sc.Exec(ctx, ops)
	if err != nil {
		return err
	}
	for i, res := range results {
		re := &readEntry{}
		switch res.Status {
		case wire.StatusOK:
			rec, err := mvcc.Decode(res.Val)
			if err != nil {
				return err
			}
			re.rec = rec
			re.stamp = res.Stamp
		case wire.StatusNotFound:
		default:
			return statusToErr(res.Status)
		}
		t.reads[keys[i]] = re
	}
	return nil
}

// statusToErr maps non-OK statuses for the prefetch path.
func statusToErr(s wire.Status) error {
	switch s {
	case wire.StatusConflict:
		return ErrConflict
	default:
		return &storeStatusError{s}
	}
}

type storeStatusError struct{ s wire.Status }

func (e *storeStatusError) Error() string { return "core: storage status " + e.s.String() }

// LookupRids resolves several primary keys to rids concurrently: the tree
// traversals run as parallel sub-activities, so their leaf fetches coalesce
// in the client batcher. Missing keys yield rid 0.
func (t *Txn) LookupRids(ctx env.Ctx, table *TableInfo, pkVals [][]relational.Value) ([]uint64, error) {
	rids := make([]uint64, len(pkVals))
	if len(pkVals) == 0 {
		return rids, nil
	}
	if len(pkVals) == 1 {
		val, ok, err := table.PK.Lookup(ctx, relational.EncodeKey(pkVals[0]...))
		if err != nil {
			return nil, err
		}
		if ok {
			rids[0] = relational.RidFromIndexVal(val)
		}
		return rids, nil
	}
	var mu sync.Mutex
	var firstErr error
	futs := make([]env.Future, len(pkVals))
	for i := range pkVals {
		i := i
		key := relational.EncodeKey(pkVals[i]...)
		futs[i] = t.pn.envr.NewFuture()
		ctx.Go("pk-lookup", func(lctx env.Ctx) {
			val, ok, err := table.PK.Lookup(lctx, key)
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			} else if ok {
				rids[i] = relational.RidFromIndexVal(val)
			}
			futs[i].Set(nil)
		})
	}
	waitFutures(ctx, futs)
	ctx.Work(time.Duration(len(pkVals)) * t.pn.cfg.Costs.IndexOp)
	return rids, firstErr
}

// waitFutures blocks on all futures and charges the wait to the remote
// component of the driving transaction's breakdown: the sub-activities run
// with their own contexts (no aggregator), so from the caller's viewpoint
// this is time spent waiting on remote work.
func waitFutures(ctx env.Ctx, futs []env.Future) {
	sc := ctx.Trace()
	if sc.Agg == nil {
		for _, f := range futs {
			f.Get(ctx)
		}
		return
	}
	t0 := ctx.Now()
	for _, f := range futs {
		f.Get(ctx)
	}
	sc.Agg.Add(trace.CompRemote, ctx.Now()-t0)
}

// ReadMany resolves primary keys to visible rows with batched traffic:
// concurrent index lookups followed by one batched record fetch. Result i
// is nil when pkVals[i] has no visible row.
func (t *Txn) ReadMany(ctx env.Ctx, table *TableInfo, pkVals [][]relational.Value) (rids []uint64, rows []relational.Row, err error) {
	if t.state != StateRunning {
		return nil, nil, ErrTxnDone
	}
	rids, err = t.LookupRids(ctx, table, pkVals)
	if err != nil {
		return nil, nil, err
	}
	var present []uint64
	for _, rid := range rids {
		if rid != 0 {
			present = append(present, rid)
		}
	}
	if err := t.prefetch(ctx, table, present); err != nil {
		return nil, nil, err
	}
	rows = make([]relational.Row, len(pkVals))
	for i, rid := range rids {
		if rid == 0 {
			continue
		}
		row, found, err := t.Read(ctx, table, rid)
		if err != nil {
			return nil, nil, err
		}
		if found {
			rows[i] = row
		} else {
			rids[i] = 0
		}
	}
	return rids, rows, nil
}

// parallelIndexOps inserts the batches, one per tree, concurrently and
// returns the first error. ErrDuplicateKey wins over other errors so commit
// can classify the outcome deterministically.
func (t *Txn) parallelIndexOps(ctx env.Ctx, batches []*indexBatch) error {
	if len(batches) == 0 {
		return nil
	}
	if len(batches) == 1 {
		return t.insertBatch(ctx, batches[0])
	}
	var mu sync.Mutex
	var dupErr, firstErr error
	futs := make([]env.Future, len(batches))
	for i, b := range batches {
		futs[i] = t.pn.envr.NewFuture()
		ctx.Go("index-op", func(ictx env.Ctx) {
			if err := t.insertBatch(ictx, b); err != nil {
				mu.Lock()
				if err == ErrDuplicateKey {
					dupErr = err
				} else if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
			futs[i].Set(nil)
		})
	}
	waitFutures(ctx, futs)
	if dupErr != nil {
		return dupErr
	}
	return firstErr
}
