package core

import (
	"bytes"
	"time"

	"tell/internal/btree"
	"tell/internal/env"
	"tell/internal/relational"
	"tell/internal/trace"
)

// Read is one index read of a read round: a point lookup by primary key
// (PKRead) or the visible rows of a key range of the primary key or of a
// secondary index (RangeRead, FirstRead, IndexPrefixRead). Txn.ReadRound
// runs any number of them together and fills in their results; a Read is
// used once.
type Read struct {
	table     *TableInfo
	tree      *btree.Tree
	cols      []int  // the indexed columns: a live entry matches its row on them
	ridSuffix bool   // secondary entries end in the rid
	point     bool   // lo is the key; at most one entry
	lo, hi    []byte // hi nil: unbounded
	page      int    // entries per walk, doubling; 0: the whole range at once
	limit     int    // visible rows wanted; 0: all of them
	fn        func(e IndexEntry) bool
	err       error // set by a constructor that cannot build the read

	hits []indexHit   // the entries of the current walk
	leaf btree.Leaf   // the current walk's first leaf
	rows []IndexEntry // the visible rows found, in key order (fn nil)
}

// indexHit is one index entry a walk met.
type indexHit struct {
	key []byte
	rid uint64
}

// PKRead reads the row whose primary key is pkVals.
func PKRead(table *TableInfo, pkVals ...relational.Value) Read {
	return Read{table: table, tree: table.PK, cols: table.Schema.PKCols, point: true, lo: relational.EncodeKey(pkVals...)}
}

// RangeRead reads the rows whose primary keys fall in [loVals, hiVals); nil
// hiVals leaves the range unbounded.
func RangeRead(table *TableInfo, loVals, hiVals []relational.Value) Read {
	lo, hi := keyRange(loVals, hiVals)
	return Read{table: table, tree: table.PK, cols: table.Schema.PKCols, lo: lo, hi: hi}
}

// firstPage is FirstRead's first page size. On TPC-C delivery the lowest
// entry is usually the row the previous delivery deleted, still waiting for
// index GC (§5.4), so a page of one would take a second round trip on most
// scans; four covers nearly all of them, and an extra prefetched record
// costs far less than an extra page.
const firstPage = 4

// FirstRead reads the lowest-keyed visible row in [loVals, hiVals) — ORDER
// BY pk LIMIT 1. Its range is walked a page at a time, so entries past the
// first visible row cost neither an index step nor a record read beyond the
// page that holds it.
func FirstRead(table *TableInfo, loVals, hiVals []relational.Value) Read {
	r := RangeRead(table, loVals, hiVals)
	r.page, r.limit = firstPage, 1
	return r
}

// IndexPrefixRead reads the rows whose columns in the named secondary index
// equal prefix.
func IndexPrefixRead(table *TableInfo, index string, prefix []relational.Value) Read {
	lo := relational.EncodeKey(prefix...)
	return indexRead(table, index, lo, relational.PrefixEnd(lo))
}

// indexRead reads the rows whose entries in the named secondary index fall
// in [lo, hi). Secondary entries carry a rid suffix, making duplicates
// distinct.
func indexRead(table *TableInfo, index string, lo, hi []byte) Read {
	tree, ok := table.Sec[index]
	if !ok {
		return Read{err: errUnknownIndex(table, index)}
	}
	var cols []int
	for i := range table.Schema.Indexes {
		if table.Schema.Indexes[i].Name == index {
			cols = table.Schema.Indexes[i].Cols
		}
	}
	return Read{table: table, tree: tree, cols: cols, ridSuffix: true, lo: lo, hi: hi}
}

// Row returns the first visible row the read found.
func (r *Read) Row() (rid uint64, row relational.Row, found bool) {
	if len(r.rows) == 0 {
		return 0, nil, false
	}
	return r.rows[0].Rid, r.rows[0].Row, true
}

// Rows returns every visible row the read found, in key order.
func (r *Read) Rows() []IndexEntry { return r.rows }

// ReadRound runs independent reads together (§5.1). First, every read's
// B+tree walk runs as a concurrent sub-activity; the walks touch no
// transaction state, and their node fetches coalesce in the request
// batcher. Then one batched request fetches every record they found, across
// tables. Last, on the calling worker, each row is decoded and checked for
// visibility and against its entry, and the stale entries of the whole
// round are collected together (§5.4). CPU is charged on the calling worker
// once the walks are back — one IndexOp per point lookup and per range
// entry — so a round saves round trips, not CPU. A range read whose page
// ended before it had the rows it wants walks on past the page, with a
// doubled page, in the next pass.
func (t *Txn) ReadRound(ctx env.Ctx, reads []Read) error {
	if t.state != StateRunning {
		return ErrTxnDone
	}
	pending := make([]*Read, len(reads))
	for i := range reads {
		if reads[i].err != nil {
			return reads[i].err
		}
		pending[i] = &reads[i]
	}
	for len(pending) > 0 {
		t.fanOut(ctx, "index-walk", len(pending), func(wctx env.Ctx, i int) { pending[i].walk(wctx) })
		steps := 0
		var keys [][]byte
		for _, r := range pending {
			if r.err != nil {
				return r.err
			}
			if r.point {
				steps++
			} else {
				steps += len(r.hits)
			}
			for _, h := range r.hits {
				keys = append(keys, relational.RecordKey(r.table.Schema.ID, h.rid))
			}
		}
		ctx.Work(time.Duration(steps) * t.pn.cfg.Costs.IndexOp)
		if err := t.prefetch(ctx, keys); err != nil {
			return err
		}
		var stale []staleEntries
		more := pending[:0]
		for _, r := range pending {
			again, s, err := t.settle(ctx, r)
			if err != nil {
				return err
			}
			if len(s.keys) > 0 {
				stale = append(stale, s)
			}
			if again {
				more = append(more, r)
			}
		}
		t.collect(ctx, stale)
		pending = more
	}
	return nil
}

// walk runs r's B+tree walk and keeps the entries it meets, at most a page
// of them, and the leaf it started in.
func (r *Read) walk(ctx env.Ctx) {
	r.hits = r.hits[:0]
	if r.leaf, r.err = r.tree.ReadLeaf(ctx, r.lo); r.err != nil {
		return
	}
	if r.point {
		if val, ok := r.leaf.Get(r.lo); ok {
			r.hits = append(r.hits, indexHit{key: r.lo, rid: relational.RidFromIndexVal(val)})
		}
		return
	}
	page := r.page
	r.err = r.tree.ScanFrom(ctx, &r.leaf, r.hi, func(k, v []byte) bool {
		r.hits = append(r.hits, indexHit{key: append([]byte(nil), k...), rid: relational.RidFromIndexVal(v)})
		return page == 0 || len(r.hits) < page
	})
}

// staleEntries are the entries of one tree a read found obsolete, and the
// leaf the read's walk started in.
type staleEntries struct {
	tree *btree.Tree
	from *btree.Leaf
	keys [][]byte
}

// settle resolves the entries of r's current walk to rows and hands the
// visible ones on. It returns the entries found obsolete and whether r must
// walk on: its page was full and it still wants rows. The page resumes at
// key+0x00, the least key above the page's last one.
func (t *Txn) settle(ctx env.Ctx, r *Read) (again bool, stale staleEntries, err error) {
	stale.tree, stale.from = r.tree, &r.leaf
	for _, h := range r.hits {
		row, found, err := t.Read(ctx, r.table, h.rid)
		if err != nil {
			return false, stale, err
		}
		prefix := h.key
		if r.ridSuffix && len(prefix) >= 8 {
			prefix = prefix[:len(prefix)-8]
		}
		// Version-unaware indexes can return rows whose current value no
		// longer carries the entry's key (the entry belongs to an older
		// version, §5.3.2). Check against the visible row.
		if found {
			t.keyBuf = relational.AppendIndexKey(t.keyBuf[:0], row, r.cols)
			found = bytes.Equal(t.keyBuf, prefix)
		}
		if !found {
			// An entry that matches no version that could still be read
			// is collected: the Va \ G = ∅ rule of §5.4.
			re, err := t.readRecord(ctx, relational.RecordKey(r.table.Schema.ID, h.rid))
			if err == nil && entryObsolete(r.table.Schema, r.cols, prefix, re.rec, t.lav) {
				stale.keys = append(stale.keys, h.key)
			}
			continue
		}
		if !r.deliver(IndexEntry{Rid: h.rid, Row: row}) {
			return false, stale, nil
		}
	}
	if r.page == 0 || len(r.hits) < r.page {
		return false, stale, nil
	}
	last := r.hits[len(r.hits)-1].key
	r.lo = append(last[:len(last):len(last)], 0)
	r.page *= 2
	return true, stale, nil
}

// deliver hands one visible row to the read and reports whether it wants
// more.
func (r *Read) deliver(e IndexEntry) bool {
	if r.fn != nil {
		return r.fn(e)
	}
	r.rows = append(r.rows, e)
	return r.limit == 0 || len(r.rows) < r.limit
}

// collect removes the stale entries a round found (§5.4: "index GC is
// performed during read operations"): each read's entries with one batched
// delete that starts from the leaf its walk read, every read's delete at
// once. Failures are fine — "if the LL/SC operation fails, GC is retried
// with the next read".
func (t *Txn) collect(ctx env.Ctx, stale []staleEntries) {
	t.fanOut(ctx, "index-gc", len(stale), func(gctx env.Ctx, i int) {
		stale[i].tree.DeleteMany(gctx, stale[i].from, stale[i].keys)
	})
}

// fanOut runs fn(ctx, i) for every i in [0, n) as concurrent
// sub-activities (start) and waits for all of them; a single call runs
// inline.
func (t *Txn) fanOut(ctx env.Ctx, name string, n int, fn func(ctx env.Ctx, i int)) {
	switch n {
	case 0:
		return
	case 1:
		fn(ctx, 0)
		return
	}
	t.start(ctx, name, n, fn)()
}

// start runs fn(ctx, i) for every i in [0, n) as concurrent sub-activities
// and returns a function that waits for all of them. The wait is charged to
// the remote component of the driving transaction's breakdown: the
// sub-activities run with their own contexts (no aggregator), so from the
// caller's viewpoint this is time spent waiting on remote work.
func (t *Txn) start(ctx env.Ctx, name string, n int, fn func(ctx env.Ctx, i int)) (wait func()) {
	futs := make([]env.Future, n)
	for i := range futs {
		futs[i] = t.pn.envr.NewFuture()
		ctx.Go(name, func(sctx env.Ctx) {
			fn(sctx, i)
			futs[i].Set(nil)
		})
	}
	return func() {
		t0 := ctx.Now()
		for _, f := range futs {
			f.Get(ctx)
		}
		if sc := ctx.Trace(); sc.Agg != nil {
			sc.Agg.Add(trace.CompRemote, ctx.Now()-t0)
		}
	}
}
