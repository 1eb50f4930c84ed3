// Package txlog implements the transaction log: an ordered map of log
// entries kept in the shared store (§4.4.1). Before a transaction applies
// its updates, it appends an entry carrying its write set; after the
// updates and index changes are in place it sets the committed flag. The
// recovery process iterates the log backwards from the highest tid to the
// lowest active version number and rolls back entries of failed processing
// nodes that never reached the committed state.
package txlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"tell/internal/env"
	"tell/internal/mvcc"
	"tell/internal/store"
	"tell/internal/wire"
)

// prefix namespaces log keys inside the shared store. Keys embed the tid
// big-endian so that lexicographic key order equals tid order and the log
// can be scanned backwards.
const prefix = "sys/txlog/"

// Entry is one transaction-log record.
type Entry struct {
	TID       uint64
	PN        string // processing-node id, so recovery can filter by node
	Timestamp time.Duration
	WriteSet  [][]byte // store keys of updated records
	Committed bool
	// Aborted is the recovery fence: once set, the owning PN can no
	// longer mark the transaction committed. It resolves the race between
	// a falsely-suspected (slow but alive) PN and the recovery process.
	Aborted bool
}

// Key returns the store key for tid.
func Key(tid uint64) []byte {
	k := make([]byte, len(prefix)+8)
	copy(k, prefix)
	binary.BigEndian.PutUint64(k[len(prefix):], tid)
	return k
}

// TIDFromKey recovers the tid from a log key.
func TIDFromKey(key []byte) (uint64, bool) {
	if len(key) != len(prefix)+8 || string(key[:len(prefix)]) != prefix {
		return 0, false
	}
	return binary.BigEndian.Uint64(key[len(prefix):]), true
}

// Encode serializes the entry.
func (e *Entry) Encode() []byte {
	w := wire.NewWriter(64)
	w.Uvarint(e.TID)
	w.String(e.PN)
	w.Uvarint(uint64(e.Timestamp))
	w.Bool(e.Committed)
	w.Bool(e.Aborted)
	w.Uvarint(uint64(len(e.WriteSet)))
	for _, k := range e.WriteSet {
		w.BytesN(k)
	}
	return w.Bytes()
}

// Decode parses an entry.
func Decode(b []byte) (*Entry, error) {
	r := wire.NewReader(b)
	e := &Entry{
		TID:       r.Uvarint(),
		PN:        r.String(),
		Timestamp: time.Duration(r.Uvarint()),
		Committed: r.Bool(),
		Aborted:   r.Bool(),
	}
	n := r.Count(1)
	for i := 0; i < n; i++ {
		e.WriteSet = append(e.WriteSet, append([]byte(nil), r.BytesN()...))
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return e, nil
}

// Log provides transaction-log operations over a store client.
type Log struct {
	sc *store.Client
}

// New returns a log bound to the given store client.
func New(sc *store.Client) *Log { return &Log{sc: sc} }

// Append writes a new entry and returns its LL stamp; the tid guarantees
// uniqueness so this is an insert (§4.3 Try-Commit: "a transaction must
// append a new entry to the log" before applying updates).
func (l *Log) Append(ctx env.Ctx, e *Entry) (stamp uint64, err error) {
	stamp, err = l.sc.CondPut(ctx, Key(e.TID), e.Encode(), 0)
	if err == store.ErrConflict {
		return 0, fmt.Errorf("txlog: entry for tid %d already exists", e.TID)
	}
	return stamp, err
}

// ErrFenced is returned by MarkCommitted when a recovery process has
// already fenced the transaction off: it must abort.
var ErrFenced = errors.New("txlog: transaction fenced by recovery")

// MarkCommitted sets the committed flag on e's entry (§4.3 Commit), where
// stamp is the entry's LL stamp when it read as e: the one Append returned.
// The first try is a conditional put of the flagged entry on that stamp, so
// an entry nobody touched since the append takes one round trip. It fails
// with ErrFenced if recovery marked the transaction aborted first.
func (l *Log) MarkCommitted(ctx env.Ctx, e *Entry, stamp uint64) error {
	for {
		if e.Aborted {
			return ErrFenced
		}
		if e.Committed {
			return nil
		}
		flagged := *e
		flagged.Committed = true
		_, err := l.sc.CondPut(ctx, Key(e.TID), flagged.Encode(), stamp)
		if err == nil {
			return nil
		}
		if err != store.ErrConflict {
			return err
		}
		// Raced with another writer (a recovery fence), or a retried put
		// found its own first attempt applied: read the entry and decide.
		raw, s, err := l.sc.Get(ctx, Key(e.TID))
		if err != nil {
			return err
		}
		if e, err = Decode(raw); err != nil {
			return err
		}
		stamp = s
	}
}

// MarkAborted is the recovery fence: it prevents a falsely-suspected PN
// from committing tid later. It reports whether the fence took hold;
// committed=true means the transaction already committed and must NOT be
// rolled back.
func (l *Log) MarkAborted(ctx env.Ctx, tid uint64) (fenced, committed bool, err error) {
	for {
		raw, stamp, err := l.sc.Get(ctx, Key(tid))
		if err != nil {
			return false, false, err
		}
		e, err := Decode(raw)
		if err != nil {
			return false, false, err
		}
		if e.Committed {
			return false, true, nil
		}
		if e.Aborted {
			return true, false, nil
		}
		e.Aborted = true
		_, err = l.sc.CondPut(ctx, Key(tid), e.Encode(), stamp)
		if err == nil {
			return true, false, nil
		}
		if err != store.ErrConflict {
			return false, false, err
		}
	}
}

// RollbackVersion removes version tid from the record at key, deleting the
// record entirely when no versions remain. It retries through interference;
// the owning transaction, the PN recovery process (§4.4.1) and the commit
// managers' dead-peer sweep all roll back through it.
func RollbackVersion(ctx env.Ctx, sc *store.Client, key []byte, tid uint64) error {
	for attempt := 0; attempt < 64; attempt++ {
		raw, stamp, err := sc.Get(ctx, key)
		if err == store.ErrNotFound {
			return nil // already gone
		}
		if err != nil {
			return err
		}
		rec, err := mvcc.Decode(raw)
		if err != nil {
			return err
		}
		pruned, nonEmpty := rec.WithoutVersion(tid)
		if len(pruned.Versions) == len(rec.Versions) {
			return nil // version not present (already rolled back)
		}
		if nonEmpty {
			_, err = sc.CondPut(ctx, key, pruned.Encode(), stamp)
		} else {
			err = sc.Delete(ctx, key, stamp)
		}
		if err == nil {
			return nil
		}
		if err != store.ErrConflict {
			return err
		}
	}
	return fmt.Errorf("txlog: rollback of %q tid %d exhausted retries", key, tid)
}

// CorruptEntryError reports a transaction-log record that failed to decode
// (torn or corrupted bytes in the shared store). Replay stops cleanly at the
// first such record: every entry already delivered decoded intact, and
// nothing past the corrupt record is visited.
type CorruptEntryError struct {
	// TID is the corrupt entry's transaction id, recovered from its store
	// key (the key embeds the tid even when the value is garbage).
	TID uint64
	Err error
}

func (e *CorruptEntryError) Error() string {
	return fmt.Sprintf("txlog: corrupt entry for tid %d: %v", e.TID, e.Err)
}

func (e *CorruptEntryError) Unwrap() error { return e.Err }

// Get fetches the entry for tid.
func (l *Log) Get(ctx env.Ctx, tid uint64) (*Entry, error) {
	raw, _, err := l.sc.Get(ctx, Key(tid))
	if err != nil {
		return nil, err
	}
	e, err := Decode(raw)
	if err != nil {
		return nil, &CorruptEntryError{TID: tid, Err: err}
	}
	return e, nil
}

// ScanBackward visits entries with lo <= tid <= hi in descending tid order,
// stopping early when fn returns false. This is the recovery iteration
// pattern: from the highest tid down to the lav checkpoint (§4.4.1). A
// record that fails to decode stops the scan with a *CorruptEntryError
// identifying the offending tid; entries already visited were intact.
func (l *Log) ScanBackward(ctx env.Ctx, lo, hi uint64, fn func(e *Entry) bool) error {
	loKey := Key(lo)
	hiKey := Key(hi + 1) // exclusive upper bound
	if hi == ^uint64(0) {
		hiKey = append([]byte(prefix), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff)
	}
	pairs, err := l.sc.Scan(ctx, loKey, hiKey, 0, true)
	if err != nil {
		return err
	}
	for _, p := range pairs {
		e, err := Decode(p.Val)
		if err != nil {
			tid, _ := TIDFromKey(p.Key)
			return &CorruptEntryError{TID: tid, Err: err}
		}
		if !fn(e) {
			return nil
		}
	}
	return nil
}

// Truncate deletes entries with tid < lo. The lav acts as a rolling
// checkpoint, so entries below it can be dropped by the lazy GC.
func (l *Log) Truncate(ctx env.Ctx, lo uint64) (int, error) {
	pairs, err := l.sc.Scan(ctx, Key(0), Key(lo), 0, false)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, p := range pairs {
		if err := l.sc.Delete(ctx, p.Key, 0); err == nil {
			n++
		}
	}
	return n, nil
}
