// Package histcheck records the transaction histories a Tell deployment
// produces and checks them offline for snapshot-isolation anomalies. The
// recorder (History) implements core.TxnRecorder; install it on every PN
// with pn.SetRecorder(h), run a workload — chaotic or not — and call Check.
//
// The checker is history-theoretic: it needs no access to the engine, only
// the recorded begins (with snapshot descriptors), reads (with the version
// each resolved to), commits (with write sets and the version each write
// replaced) and aborts. On top of the stock MVCC invariants this catches:
//
//   - lost updates: two committed transactions overwrote the same version
//     of the same key (first-committer-wins was not enforced);
//   - G1a aborted reads: a committed transaction read a version written by
//     a transaction that aborted;
//   - dirty/intermediate reads (G1b): a read resolved to a version whose
//     writer never committed;
//   - snapshot violations: a read resolved to a version outside the
//     reader's snapshot (data committed after the snapshot was taken);
//   - non-repeatable snapshot reads: one transaction read the same key
//     twice and saw different versions.
//
// CommittedState replays the committed history into final per-key rows, so
// tests can additionally verify conservation invariants (e.g. bank totals)
// and compare against what the store actually contains after the run.
package histcheck

import (
	"fmt"
	"sort"
	"sync"

	"tell/internal/core"
	"tell/internal/det"
	"tell/internal/mvcc"
	"tell/internal/relational"
)

// AnomalyKind classifies a detected violation.
type AnomalyKind int

const (
	// LostUpdate: two committed transactions replaced the same version
	// of the same key.
	LostUpdate AnomalyKind = iota
	// AbortedRead (G1a): a read resolved to a version whose writer
	// aborted.
	AbortedRead
	// DirtyRead (G1b): a read resolved to a version whose writer never
	// committed (and is not known to have aborted).
	DirtyRead
	// SnapshotViolation: a read resolved to a version outside the
	// reader's snapshot.
	SnapshotViolation
	// NonRepeatableRead: one transaction saw two different versions of
	// the same key.
	NonRepeatableRead
	// DuplicateInsert: two committed transactions inserted the same key.
	DuplicateInsert
)

func (k AnomalyKind) String() string {
	switch k {
	case LostUpdate:
		return "lost-update"
	case AbortedRead:
		return "aborted-read(G1a)"
	case DirtyRead:
		return "dirty-read(G1b)"
	case SnapshotViolation:
		return "snapshot-violation"
	case NonRepeatableRead:
		return "non-repeatable-read"
	case DuplicateInsert:
		return "duplicate-insert"
	}
	return "?"
}

// Anomaly is one detected isolation violation.
type Anomaly struct {
	Kind AnomalyKind
	// Key is the record key involved.
	Key string
	// Txns are the transaction ids involved (reader first for read
	// anomalies; both writers for lost updates).
	Txns []uint64
	// Detail is a human-readable explanation.
	Detail string
}

func (a Anomaly) String() string {
	return fmt.Sprintf("%v key=%x txns=%v: %s", a.Kind, a.Key, a.Txns, a.Detail)
}

// readRec is one recorded read.
type readRec struct {
	tid   uint64
	key   string
	vtid  uint64
	found bool
}

// History is a low-overhead recorder of the events core.TxnRecorder
// delivers. One History can serve several PNs; it is safe for concurrent
// use (under the simulator recording is effectively serialized anyway).
type History struct {
	mu     sync.Mutex
	snaps  map[uint64]*mvcc.Snapshot
	status map[uint64]byte // 'c' committed, 'a' aborted; absent = unfinished
	reads  []readRec
	writes map[uint64][]core.WriteRec
}

// New returns an empty history.
func New() *History {
	return &History{
		snaps:  make(map[uint64]*mvcc.Snapshot),
		status: make(map[uint64]byte),
		writes: make(map[uint64][]core.WriteRec),
	}
}

// RecBegin implements core.TxnRecorder.
func (h *History) RecBegin(tid uint64, snap *mvcc.Snapshot) {
	h.mu.Lock()
	h.snaps[tid] = snap
	h.mu.Unlock()
}

// RecRead implements core.TxnRecorder.
func (h *History) RecRead(tid uint64, key []byte, versionTID uint64, found bool) {
	h.mu.Lock()
	h.reads = append(h.reads, readRec{tid: tid, key: string(key), vtid: versionTID, found: found})
	h.mu.Unlock()
}

// RecCommit implements core.TxnRecorder. Rows are captured by shallow copy;
// workloads must not mutate a row after handing it to Update/Insert.
func (h *History) RecCommit(tid uint64, writes []core.WriteRec) {
	h.mu.Lock()
	h.status[tid] = 'c'
	if len(writes) > 0 {
		ws := make([]core.WriteRec, len(writes))
		copy(ws, writes)
		for i := range ws {
			ws[i].Row = append(relational.Row(nil), ws[i].Row...)
			if writes[i].Row == nil {
				ws[i].Row = nil
			}
		}
		h.writes[tid] = ws
	}
	h.mu.Unlock()
}

// RecAbort implements core.TxnRecorder.
func (h *History) RecAbort(tid uint64) {
	h.mu.Lock()
	h.status[tid] = 'a'
	h.mu.Unlock()
}

// Report is the checker's verdict.
type Report struct {
	Anomalies []Anomaly
	// Checked counts how many reads and committed writes were examined.
	ReadsChecked, WritesChecked int
}

// Ok reports a clean history.
func (r *Report) Ok() bool { return len(r.Anomalies) == 0 }

// ByKind counts anomalies of one kind.
func (r *Report) ByKind(k AnomalyKind) int {
	n := 0
	for _, a := range r.Anomalies {
		if a.Kind == k {
			n++
		}
	}
	return n
}

func (r *Report) String() string {
	if r.Ok() {
		return fmt.Sprintf("histcheck: clean (%d reads, %d writes checked)", r.ReadsChecked, r.WritesChecked)
	}
	s := fmt.Sprintf("histcheck: %d anomalies (%d reads, %d writes checked)", len(r.Anomalies), r.ReadsChecked, r.WritesChecked)
	max := len(r.Anomalies)
	if max > 10 {
		max = 10
	}
	for _, a := range r.Anomalies[:max] {
		s += "\n  " + a.String()
	}
	if len(r.Anomalies) > max {
		s += fmt.Sprintf("\n  ... and %d more", len(r.Anomalies)-max)
	}
	return s
}

// Check analyses the recorded history. It may be called while transactions
// are still running, but the intended use is after the workload has
// drained: still-running transactions are treated as never-committed, so a
// read of their versions counts as a dirty read.
func (h *History) Check() *Report {
	h.mu.Lock()
	defer h.mu.Unlock()
	rep := &Report{}

	// Read anomalies.
	type seenRead struct {
		vtid uint64
		set  bool
	}
	firstRead := make(map[string]seenRead) // per (tid,key)
	for _, rd := range h.reads {
		rep.ReadsChecked++
		if rd.vtid != 0 && rd.vtid != rd.tid {
			switch h.status[rd.vtid] {
			case 'c':
				// Committed writer: must be inside the reader's snapshot.
				if snap, ok := h.snaps[rd.tid]; ok && !snap.Contains(rd.vtid) {
					rep.add(Anomaly{
						Kind: SnapshotViolation, Key: rd.key,
						Txns:   []uint64{rd.tid, rd.vtid},
						Detail: fmt.Sprintf("txn %d read version %d which is outside its snapshot %v", rd.tid, rd.vtid, snap),
					})
				}
			case 'a':
				rep.add(Anomaly{
					Kind: AbortedRead, Key: rd.key,
					Txns:   []uint64{rd.tid, rd.vtid},
					Detail: fmt.Sprintf("txn %d read version %d written by an aborted transaction", rd.tid, rd.vtid),
				})
			default:
				rep.add(Anomaly{
					Kind: DirtyRead, Key: rd.key,
					Txns:   []uint64{rd.tid, rd.vtid},
					Detail: fmt.Sprintf("txn %d read version %d whose writer never committed", rd.tid, rd.vtid),
				})
			}
		}
		// Repeatability within one transaction.
		rk := fmt.Sprintf("%d\x00%s", rd.tid, rd.key)
		if prev, ok := firstRead[rk]; ok {
			if prev.vtid != rd.vtid {
				rep.add(Anomaly{
					Kind: NonRepeatableRead, Key: rd.key,
					Txns:   []uint64{rd.tid},
					Detail: fmt.Sprintf("txn %d first saw version %d, then %d", rd.tid, prev.vtid, rd.vtid),
				})
			}
		} else {
			firstRead[rk] = seenRead{vtid: rd.vtid, set: true}
		}
	}

	// Write anomalies: for every key, committed writes grouped by the
	// version they replaced. Two committed writers replacing the same
	// version means first-committer-wins failed (lost update). Two
	// committed inserts of the same key are a duplicate insert.
	type writer struct{ tid, base uint64 }
	byKey := make(map[string][]writer)
	inserts := make(map[string][]uint64)
	// Walk transactions in tid order so the per-key writer and insert
	// lists (and through them the anomaly report) are deterministic.
	for _, tid := range det.Keys(h.writes) {
		ws := h.writes[tid]
		if h.status[tid] != 'c' {
			continue
		}
		for _, w := range ws {
			rep.WritesChecked++
			k := string(w.Key)
			if w.Insert {
				inserts[k] = append(inserts[k], tid)
				continue
			}
			byKey[k] = append(byKey[k], writer{tid: tid, base: w.BaseVersion})
		}
	}
	for _, k := range det.Keys(byKey) {
		ws := byKey[k]
		sort.Slice(ws, func(i, j int) bool { return ws[i].tid < ws[j].tid })
		byBase := make(map[uint64]uint64) // base → first committed tid seen
		for _, w := range ws {
			if prev, ok := byBase[w.base]; ok {
				rep.add(Anomaly{
					Kind: LostUpdate, Key: k,
					Txns:   []uint64{prev, w.tid},
					Detail: fmt.Sprintf("txns %d and %d both committed a write replacing version %d", prev, w.tid, w.base),
				})
				continue
			}
			byBase[w.base] = w.tid
		}
	}
	for _, k := range det.Keys(inserts) {
		tids := inserts[k]
		if len(tids) > 1 {
			sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
			rep.add(Anomaly{
				Kind: DuplicateInsert, Key: k,
				Txns:   tids,
				Detail: fmt.Sprintf("%d committed inserts of the same key", len(tids)),
			})
		}
	}
	return rep
}

func (r *Report) add(a Anomaly) { r.Anomalies = append(r.Anomalies, a) }

// CommittedState replays the committed history into the final row of every
// key. Under first-committer-wins the committed writes of a key form a chain
// (each replaces the version its predecessor installed), and the final row is
// the chain's tail: the write no other committed write replaced. Tid order
// would not do — with several commit managers handing out disjoint tid
// ranges, commit order does not follow tid order. When a lost update forks
// the chain (Check reports it) the highest such tid wins. Deleted keys are
// absent. Tests use it for conservation invariants and to cross-check the
// store's actual contents.
func (h *History) CommittedState() map[string]relational.Row {
	h.mu.Lock()
	defer h.mu.Unlock()
	replaced := make(map[string]map[uint64]bool) // key → versions some committed write replaced
	for tid, ws := range h.writes {
		if h.status[tid] != 'c' {
			continue
		}
		for _, w := range ws {
			if w.Insert {
				continue
			}
			k := string(w.Key)
			if replaced[k] == nil {
				replaced[k] = make(map[uint64]bool)
			}
			replaced[k][w.BaseVersion] = true
		}
	}
	winner := make(map[string]uint64)
	for tid, ws := range h.writes {
		if h.status[tid] != 'c' {
			continue
		}
		for _, w := range ws {
			k := string(w.Key)
			if replaced[k][tid] {
				continue
			}
			if prev, ok := winner[k]; !ok || tid > prev {
				winner[k] = tid
			}
		}
	}
	state := make(map[string]relational.Row)
	for k, tid := range winner {
		if row := rowOf(h.writes[tid], k); row != nil {
			state[k] = row
		}
	}
	return state
}

func rowOf(ws []core.WriteRec, key string) relational.Row {
	for i := len(ws) - 1; i >= 0; i-- {
		if string(ws[i].Key) == key {
			return ws[i].Row
		}
	}
	return nil
}
