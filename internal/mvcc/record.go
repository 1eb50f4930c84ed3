package mvcc

import (
	"fmt"

	"tell/internal/wire"
)

// Version is one version of a record. TID is both the identifier of the
// writing transaction and the version number (§4.2: "tids and version
// numbers are synonyms"). A Deleted version marks the row as removed for
// snapshots that include it.
type Version struct {
	TID     uint64
	Deleted bool
	Data    []byte
}

// Record is the serialized set of all versions of a row, stored as a single
// key-value pair (§5.1): one read returns every version, and one atomic
// conditional write both applies an update and detects write-write
// conflicts. Versions are kept in apply order, newest first. Apply order is
// serialized by the storage node's LL/SC stamps and therefore equals commit
// order per key; with a single commit manager it coincides with descending
// TID, but with several managers handing out disjoint tid ranges a later
// committer can carry a smaller tid, so list position — not TID — is the
// version order.
type Record struct {
	Versions []Version
}

// Decode parses a record value fetched from the store.
func Decode(b []byte) (*Record, error) {
	r := wire.NewReader(b)
	n := r.Count(2)
	rec := &Record{Versions: make([]Version, n)}
	for i := range rec.Versions {
		v := &rec.Versions[i]
		v.TID = r.Uvarint()
		v.Deleted = r.Bool()
		v.Data = r.BytesN()
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return rec, nil
}

// Encode serializes the record for storage.
func (rec *Record) Encode() []byte {
	size := 4
	for i := range rec.Versions {
		size += 12 + len(rec.Versions[i].Data)
	}
	return rec.Append(make([]byte, 0, size))
}

// Append appends the record's serialization to dst.
func (rec *Record) Append(dst []byte) []byte {
	w := wire.AppendWriter(dst)
	w.Uvarint(uint64(len(rec.Versions)))
	for i := range rec.Versions {
		v := &rec.Versions[i]
		w.Uvarint(v.TID)
		w.Bool(v.Deleted)
		w.BytesN(v.Data)
	}
	return w.Bytes()
}

// NewRecord creates a record with a single initial version.
func NewRecord(tid uint64, data []byte) *Record {
	return &Record{Versions: []Version{{TID: tid, Data: data}}}
}

// Visible returns the version the snapshot may read: the newest committed
// version v ∈ V ∩ V* (§4.2; the scan is in apply order, so the first member
// of the snapshot is the newest the snapshot may see). ok is false when no
// version is visible or the visible version is a delete marker.
func (rec *Record) Visible(snap *Snapshot) (v *Version, ok bool) {
	for i := range rec.Versions {
		if snap.Contains(rec.Versions[i].TID) {
			if rec.Versions[i].Deleted {
				return nil, false
			}
			return &rec.Versions[i], true
		}
	}
	return nil, false
}

// Get returns the version with exactly the given tid.
func (rec *Record) Get(tid uint64) (*Version, bool) {
	for i := range rec.Versions {
		if rec.Versions[i].TID == tid {
			return &rec.Versions[i], true
		}
	}
	return nil, false
}

// WithVersion returns a copy of the record with version tid set to data,
// prepended as the newest applied version (an existing tid version is
// replaced in place, preserving its position).
func (rec *Record) WithVersion(tid uint64, deleted bool, data []byte) *Record {
	nv := Version{TID: tid, Deleted: deleted, Data: data}
	out := &Record{Versions: make([]Version, 0, len(rec.Versions)+1)}
	replaced := false
	for _, v := range rec.Versions {
		if v.TID == tid {
			out.Versions = append(out.Versions, nv)
			replaced = true
			continue
		}
		out.Versions = append(out.Versions, v)
	}
	if !replaced {
		out.Versions = append([]Version{nv}, out.Versions...)
	}
	return out
}

// WithoutVersion returns a copy with version tid removed (rollback of an
// aborted transaction, §4.3/4.4.1). The second result is false when the
// record then has no versions left and should be deleted from the store.
func (rec *Record) WithoutVersion(tid uint64) (*Record, bool) {
	out := &Record{Versions: make([]Version, 0, len(rec.Versions))}
	for _, v := range rec.Versions {
		if v.TID != tid {
			out.Versions = append(out.Versions, v)
		}
	}
	return out, len(out.Versions) > 0
}

// GC removes versions that no current or future transaction can read,
// given the lowest active version number (§5.4). The paper states the
// collectable set over a tid-ordered list as G = C \ {max(C)} with
// C = {x ∈ V : x ≤ lav}; with apply-ordered versions the equivalent rule is
// positional: the survivor is the newest-applied version with TID ≤ lav
// (see SurvivorIdx), and everything applied before it is unreadable — any
// reader scanning from the head stops at the survivor or earlier, because
// TID ≤ lav puts the survivor in every current and future snapshot. It
// returns the pruned record and whether anything was removed. If the sole
// surviving version is a delete marker, empty is true: the whole record
// (and its index entries) can be removed.
func (rec *Record) GC(lav uint64) (pruned *Record, changed, empty bool) {
	i := rec.SurvivorIdx(lav)
	if i < 0 {
		return rec, false, false
	}
	out := &Record{Versions: append([]Version(nil), rec.Versions[:i+1]...)}
	if len(out.Versions) == 1 && out.Versions[0].Deleted {
		return out, true, true
	}
	if i == len(rec.Versions)-1 {
		return rec, false, false
	}
	return out, true, false
}

// SurvivorIdx returns the position of the oldest version GC must keep: the
// first (newest-applied) version with TID ≤ lav. Every version applied
// before it is unreachable by any current or future snapshot. Returns -1
// when no version is ≤ lav yet.
func (rec *Record) SurvivorIdx(lav uint64) int {
	for i := range rec.Versions {
		if rec.Versions[i].TID <= lav {
			return i
		}
	}
	return -1
}

// String renders the record for debugging.
func (rec *Record) String() string {
	s := "["
	for i, v := range rec.Versions {
		if i > 0 {
			s += " "
		}
		if v.Deleted {
			s += fmt.Sprintf("%d:†", v.TID)
		} else {
			s += fmt.Sprintf("%d:%dB", v.TID, len(v.Data))
		}
	}
	return s + "]"
}
