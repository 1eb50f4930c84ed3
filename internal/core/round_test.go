package core_test

import (
	"slices"
	"testing"
	"time"

	"tell/internal/core"
	"tell/internal/env"
	"tell/internal/relational"
	"tell/internal/transport"
	"tell/internal/wire"
)

// deleteIDs deletes the accounts with the given ids in one transaction.
func deleteIDs(t *testing.T, ctx env.Ctx, pn *core.PN, table *core.TableInfo, ids ...int64) {
	t.Helper()
	del, _ := pn.Begin(ctx)
	for _, id := range ids {
		rid, _, _, err := del.LookupPK(ctx, table, relational.I64(id))
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := del.Delete(ctx, table, rid); !ok || err != nil {
			t.Fatalf("delete %d: %v %v", id, ok, err)
		}
	}
	mustCommit(t, ctx, del)
}

// pkEntries returns the primary-key entries of table in [lo, hi).
func pkEntries(t *testing.T, ctx env.Ctx, table *core.TableInfo, lo, hi int64) int {
	t.Helper()
	n := 0
	from, err := table.PK.ReadLeaf(ctx, relational.EncodeKey(pk(lo)...))
	if err == nil {
		err = table.PK.ScanFrom(ctx, &from, relational.EncodeKey(pk(hi)...), func(k, v []byte) bool { n++; return true })
	}
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// A stale primary-key entry reached through ReadMany is collected like one
// reached through LookupPK (§5.4: "index GC is performed during read
// operations").
func TestReadManyCollectsStaleEntries(t *testing.T) {
	e := newEngine(t, 1, core.TB)
	e.run(t, func(ctx env.Ctx) {
		pn := e.PNs[0]
		table := loadAccounts(t, ctx, pn, idRange(1, 11)...)
		deleteIDs(t, ctx, pn, table, 3, 7)
		ctx.Sleep(50 * time.Millisecond) // let the lav pass the deletes

		txn, _ := pn.Begin(ctx)
		rids, rows, err := txn.ReadMany(ctx, table, [][]relational.Value{pk(3), pk(5), pk(7)})
		if err != nil {
			t.Fatal(err)
		}
		if rids[0] != 0 || rows[0] != nil || rids[2] != 0 || rows[2] != nil || rows[1] == nil {
			t.Fatalf("ReadMany: rids %v rows %v, want only id 5", rids, rows)
		}
		mustCommit(t, ctx, txn)
		for _, id := range []int64{3, 7} {
			if n := pkEntries(t, ctx, table, id, id+1); n != 0 {
				t.Fatalf("the stale entry of deleted id %d survived ReadMany", id)
			}
		}
	})
}

// rangeResult is what one range gave: the first visible id and every
// visible (id, balance).
type rangeResult struct {
	first int64
	all   [][2]int64
}

// A round of first-row and full reads over several ranges returns exactly
// what per-range FirstPK and ScanPK calls return, and what the model says:
// ranges whose low entries are stale (one so many that FirstRead's first
// two pages are all stale and the page must grow twice), a range that is all stale, a row
// deleted after the snapshot was taken, and rows the transaction itself
// updated or deleted.
func TestReadRoundMatchesPerRangeReads(t *testing.T) {
	e := newEngine(t, 1, core.TB)
	e.run(t, func(ctx env.Ctx) {
		pn := e.PNs[0]
		// Six ranges of twenty ids: [100k, 100k+20).
		const ranges = 6
		var ids []int64
		for k := int64(0); k < ranges; k++ {
			ids = append(ids, idRange(100*k, 100*k+20)...)
		}
		table := loadAccounts(t, ctx, pn, ids...)
		gone := map[int64]bool{}
		var stale []int64
		stale = append(stale, idRange(0, 12)...)    // range 0: the first two pages stale
		stale = append(stale, 100, 101, 105)        // range 1: some stale
		stale = append(stale, idRange(300, 320)...) // range 3: all stale
		deleteIDs(t, ctx, pn, table, stale...)
		for _, id := range stale {
			gone[id] = true
		}
		ctx.Sleep(50 * time.Millisecond) // let the lav pass the deletes

		round, _ := pn.Begin(ctx)
		single, _ := pn.Begin(ctx)
		// Deleted after both snapshots: still visible to both.
		deleteIDs(t, ctx, pn, table, 200)
		// The transactions' own writes: an update in range 4 and a delete
		// in range 5, the same in both.
		balance := map[int64]int64{}
		for _, txn := range []*core.Txn{round, single} {
			rid, _, _, _ := txn.LookupPK(ctx, table, relational.I64(400))
			if ok, err := txn.Update(ctx, table, rid, account(400, "own", 4444)); !ok || err != nil {
				t.Fatalf("own update: %v %v", ok, err)
			}
			rid, _, _, _ = txn.LookupPK(ctx, table, relational.I64(500))
			if ok, err := txn.Delete(ctx, table, rid); !ok || err != nil {
				t.Fatalf("own delete: %v %v", ok, err)
			}
		}
		balance[400] = 4444
		gone[500] = true

		want := make([]rangeResult, ranges)
		for k := range want {
			want[k].first = -1
			for _, id := range idRange(100*int64(k), 100*int64(k)+20) {
				if gone[id] {
					continue
				}
				if want[k].first < 0 {
					want[k].first = id
				}
				b, ok := balance[id]
				if !ok {
					b = id
				}
				want[k].all = append(want[k].all, [2]int64{id, b})
			}
		}

		bounds := func(k int) (lo, hi []relational.Value) { return pk(100 * int64(k)), pk(100*int64(k) + 20) }
		reads := make([]core.Read, 2*ranges)
		for k := 0; k < ranges; k++ {
			lo, hi := bounds(k)
			reads[2*k] = core.FirstRead(table, lo, hi)
			reads[2*k+1] = core.RangeRead(table, lo, hi)
		}
		if err := round.ReadRound(ctx, reads); err != nil {
			t.Fatal(err)
		}
		got := make([]rangeResult, ranges)
		for k := range got {
			got[k].first = -1
			if _, row, found := reads[2*k].Row(); found {
				got[k].first = row[0].I
			}
			for _, en := range reads[2*k+1].Rows() {
				got[k].all = append(got[k].all, [2]int64{en.Row[0].I, en.Row[2].I})
			}
		}

		each := make([]rangeResult, ranges)
		for k := range each {
			lo, hi := bounds(k)
			each[k].first = -1
			_, row, found, err := single.FirstPK(ctx, table, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			if found {
				each[k].first = row[0].I
			}
			if err := single.ScanPK(ctx, table, lo, hi, func(en core.IndexEntry) bool {
				each[k].all = append(each[k].all, [2]int64{en.Row[0].I, en.Row[2].I})
				return true
			}); err != nil {
				t.Fatal(err)
			}
		}
		for k := range want {
			if got[k].first != want[k].first || !slices.Equal(got[k].all, want[k].all) {
				t.Errorf("range %d: round gave first %d rows %v, want %d %v", k, got[k].first, got[k].all, want[k].first, want[k].all)
			}
			if each[k].first != want[k].first || !slices.Equal(each[k].all, want[k].all) {
				t.Errorf("range %d: per-range reads gave first %d rows %v, want %d %v", k, each[k].first, each[k].all, want[k].first, want[k].all)
			}
		}
		round.Abort(ctx)
		single.Abort(ctx)

		// The round collected every stale entry it met.
		for k := 0; k < ranges; k++ {
			live := 0
			for _, id := range idRange(100*int64(k), 100*int64(k)+20) {
				if !gone[id] || id == 500 {
					live++
				}
			}
			if n := pkEntries(t, ctx, table, 100*int64(k), 100*int64(k)+20); n != live {
				t.Errorf("range %d: %d entries left, want the %d live ones", k, n, live)
			}
		}
	})
}

// storeRounds runs fn with every store request delayed by a millisecond and
// returns how many store round trips it took one after another: requests
// sent less than the delay apart belong to one round trip.
func (e *engine) storeRounds(fn func()) int {
	const delay = time.Millisecond
	var sends []time.Duration
	e.Net.SetFaultFn(func(src, dst string, payload []byte) transport.Fault {
		if wire.PeekKind(payload) != wire.KindStoreReq {
			return transport.Fault{}
		}
		sends = append(sends, e.Env.Now())
		return transport.Fault{Delay: delay}
	})
	fn()
	e.Net.SetFaultFn(nil)
	rounds := 0
	for i, at := range sends {
		if i == 0 || at-sends[i-1] >= delay/2 {
			rounds++
		}
	}
	return rounds
}

// A first-row round over ten ranges takes the record gets of ten single
// FirstPK calls — a first page each — but only two store round trips: one
// for the walks, one for the records. One range at a time would take 20.
func TestReadRoundTakesTwoRoundTrips(t *testing.T) {
	e := newEngine(t, 1, core.TB)
	e.run(t, func(ctx env.Ctx) {
		pn := e.PNs[0]
		var ids []int64
		for k := int64(0); k < 10; k++ {
			ids = append(ids, idRange(100*k, 100*k+5)...)
		}
		table := loadAccounts(t, ctx, pn, ids...)
		txn, _ := pn.Begin(ctx)
		reads := make([]core.Read, 10)
		for k := range reads {
			reads[k] = core.FirstRead(table, pk(100*int64(k)), pk(100*int64(k)+100))
		}
		var rounds int
		gets := e.recordGets(table, func() {
			rounds = e.storeRounds(func() {
				if err := txn.ReadRound(ctx, reads); err != nil {
					t.Fatal(err)
				}
			})
		})
		if gets != 10*4 || rounds != 2 {
			t.Fatalf("%d record gets in %d round trips, want 40 (a first page of 4 per range) in 2", gets, rounds)
		}
		for k := range reads {
			if _, row, found := reads[k].Row(); !found || row[0].I != 100*int64(k) {
				t.Fatalf("range %d: %v %v", k, row, found)
			}
		}
		mustCommit(t, ctx, txn)
	})
}

func TestReadRoundUnknownIndex(t *testing.T) {
	e := newEngine(t, 1, core.TB)
	e.run(t, func(ctx env.Ctx) {
		table := loadAccounts(t, ctx, e.PNs[0], 1)
		txn, _ := e.PNs[0].Begin(ctx)
		err := txn.ReadRound(ctx, []core.Read{core.PKRead(table, relational.I64(1)), core.IndexPrefixRead(table, "nope", nil)})
		if _, ok := err.(*core.UnknownIndexError); !ok {
			t.Fatalf("err %v, want an UnknownIndexError", err)
		}
		txn.Abort(ctx)
	})
}
