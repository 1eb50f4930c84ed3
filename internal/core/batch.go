package core

import (
	"time"

	"tell/internal/env"
	"tell/internal/mvcc"
	"tell/internal/relational"
	"tell/internal/wire"
)

// This file implements the transaction-side of the paper's aggressive
// batching (§5.1) beside the read round (round.go): multi-record reads
// travel in single requests, and the independent B+tree operations of
// commit-time index maintenance run concurrently so the PN-wide request
// batcher can coalesce them.

// prefetch loads the records under the given keys into the transaction
// buffer with one batched storage request (records already buffered or
// written are skipped). Only the direct fetch path batches; the
// shared-buffer strategies fall back to their per-record validation
// protocols.
func (t *Txn) prefetch(ctx env.Ctx, keys [][]byte) error {
	if t.pn.cfg.Buffer != TB {
		for _, key := range keys {
			if _, err := t.readRecord(ctx, key); err != nil {
				return err
			}
		}
		return nil
	}
	var ops []wire.Op
	var fetched []string
	for _, key := range keys {
		ks := string(key)
		if _, ok := t.reads[ks]; ok {
			continue
		}
		if _, ok := t.writes[ks]; ok {
			continue
		}
		ops = append(ops, wire.Op{Code: wire.OpGet, Key: key})
		fetched = append(fetched, ks)
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
		t.reads[fetched[i]] = re
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

// ReadMany resolves primary keys of one table to visible rows in one read
// round of PKReads. Result i is nil (rid 0) when pkVals[i] has no visible
// row.
func (t *Txn) ReadMany(ctx env.Ctx, table *TableInfo, pkVals [][]relational.Value) (rids []uint64, rows []relational.Row, err error) {
	reads := make([]Read, len(pkVals))
	for i, pk := range pkVals {
		reads[i] = PKRead(table, pk...)
	}
	if err := t.ReadRound(ctx, reads); err != nil {
		return nil, nil, err
	}
	rids = make([]uint64, len(reads))
	rows = make([]relational.Row, len(reads))
	for i := range reads {
		rids[i], rows[i], _ = reads[i].Row()
	}
	return rids, rows, nil
}

// parallelIndexOps inserts the batches, one per tree, concurrently and
// returns the first error. ErrDuplicateKey wins over other errors so commit
// can classify the outcome deterministically.
func (t *Txn) parallelIndexOps(ctx env.Ctx, batches []*indexBatch) error {
	errs := make([]error, len(batches))
	t.fanOut(ctx, "index-op", len(batches), func(ictx env.Ctx, i int) {
		errs[i] = t.insertBatch(ictx, batches[i])
	})
	var first error
	for _, err := range errs {
		if err == ErrDuplicateKey {
			return err
		}
		if first == nil {
			first = err
		}
	}
	return first
}
