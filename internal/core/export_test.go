package core

import (
	"tell/internal/env"
	"tell/internal/mvcc"
	"tell/internal/relational"
	"tell/internal/store"
)

// ID returns the node's name.
func (pn *PN) ID() string { return pn.cfg.ID }

// Store returns the underlying store client.
func (pn *PN) Store() *store.Client { return pn.sc }

// FirstPK returns the lowest-keyed row visible in [loVals, hiVals): a read
// round of one FirstRead.
func (t *Txn) FirstPK(ctx env.Ctx, table *TableInfo, loVals, hiVals []relational.Value) (rid uint64, row relational.Row, found bool, err error) {
	return t.readOne(ctx, FirstRead(table, loVals, hiVals))
}

// Snapshot returns the transaction's snapshot descriptor.
func (t *Txn) Snapshot() *mvcc.Snapshot { return t.snap }
