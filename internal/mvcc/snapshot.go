// Package mvcc implements the multi-version concurrency-control primitives
// of the paper: snapshot descriptors (§4.2), the multi-version record
// encoding in which one key-value pair carries all versions of a row
// (§5.1), and the garbage-collection rules over version sets (§5.4).
package mvcc

import (
	"fmt"

	"tell/internal/wire"
)

// Snapshot is a snapshot descriptor: the set of transaction ids whose
// versions a transaction may read. It consists of a base version number b —
// all tids ≤ b belong to finished transactions — and a bitset N of
// committed tids > b ("b+1 is not committed; when b+1 commits, the base
// version is incremented until the next non-committed tid", §4.2).
//
// The same structure doubles as the paper's "version number set" used by
// the shared-buffer strategies (§5.5.2): a set of the form {x ≤ b} ∪ N.
type Snapshot struct {
	Base uint64
	// bits[i] covers tids Base+1+64i .. Base+64(i+1).
	bits []uint64
}

// NewSnapshot returns the set {x ≤ base}.
func NewSnapshot(base uint64) *Snapshot { return &Snapshot{Base: base} }

// Clone returns a deep copy.
func (s *Snapshot) Clone() *Snapshot {
	return &Snapshot{Base: s.Base, bits: append([]uint64(nil), s.bits...)}
}

// Add inserts tid into the set. tids at or below Base are already members.
func (s *Snapshot) Add(tid uint64) {
	if tid <= s.Base {
		return
	}
	idx := tid - s.Base - 1
	word := idx / 64
	for uint64(len(s.bits)) <= word {
		s.bits = append(s.bits, 0)
	}
	s.bits[word] |= 1 << (idx % 64)
}

// Contains reports set membership: the visibility test v ∈ V* of §4.2.
func (s *Snapshot) Contains(tid uint64) bool {
	if tid <= s.Base {
		return true
	}
	idx := tid - s.Base - 1
	word := idx / 64
	if word >= uint64(len(s.bits)) {
		return false
	}
	return s.bits[word]&(1<<(idx%64)) != 0
}

// Members returns the members above Base in ascending order. (Members at
// or below Base are implicit.)
func (s *Snapshot) Members() []uint64 { return s.extra() }

// extra returns the members above Base in ascending order.
func (s *Snapshot) extra() []uint64 {
	var out []uint64
	for w := range s.bits {
		word := s.bits[w]
		for word != 0 {
			b := trailingZeros(word)
			out = append(out, s.Base+1+uint64(w*64+b))
			word &^= 1 << uint(b)
		}
	}
	return out
}

func trailingZeros(x uint64) int {
	n := 0
	for x&1 == 0 {
		x >>= 1
		n++
	}
	return n
}

// SubsetOf reports whether every member of s is a member of o — the
// buffer-validity test V_tx ⊆ B of §5.5.2.
func (s *Snapshot) SubsetOf(o *Snapshot) bool {
	// Members ≤ s.Base: covered iff ≤ o.Base or set in o's bitset.
	if s.Base > o.Base {
		for t := o.Base + 1; t <= s.Base; t++ {
			if !o.Contains(t) {
				return false
			}
		}
	}
	for _, t := range s.extra() {
		if !o.Contains(t) {
			return false
		}
	}
	return true
}

// Equal reports set equality.
func (s *Snapshot) Equal(o *Snapshot) bool {
	return s.SubsetOf(o) && o.SubsetOf(s)
}

// Union returns a new snapshot containing every member of a and b.
func Union(a, b *Snapshot) *Snapshot {
	lo, hi := a, b
	if lo.Base > hi.Base {
		lo, hi = hi, lo
	}
	out := hi.Clone()
	for _, t := range lo.extra() {
		out.Add(t)
	}
	return out
}

// Normalize advances Base across a dense committed prefix, shrinking the
// bitset. The set's membership is unchanged: {≤b} ∪ {b+1, b+3} becomes
// {≤b+1} ∪ {b+3}.
func (s *Snapshot) Normalize() {
	if !s.Contains(s.Base + 1) {
		return
	}
	members := s.extra()
	i := 0
	for i < len(members) && members[i] == s.Base+1 {
		s.Base++
		i++
	}
	s.bits = s.bits[:0]
	for _, t := range members[i:] {
		s.Add(t)
	}
}

// Size returns the encoded size class (for diagnostics; §4.2 notes the
// descriptor stays small even with many parallel transactions).
func (s *Snapshot) Size() int { return 8 + 8*len(s.bits) }

// EncodeTo appends the snapshot to w.
func (s *Snapshot) EncodeTo(w *wire.Writer) {
	w.Uvarint(s.Base)
	w.Uvarint(uint64(len(s.bits)))
	for _, word := range s.bits {
		w.U64(word)
	}
}

// DecodeSnapshotFrom reads a snapshot from r.
func DecodeSnapshotFrom(r *wire.Reader) (*Snapshot, error) {
	s := &Snapshot{Base: r.Uvarint()}
	n := r.Count(8)
	for i := 0; i < n; i++ {
		s.bits = append(s.bits, r.U64())
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

// String renders the set for debugging.
func (s *Snapshot) String() string {
	return fmt.Sprintf("{≤%d ∪ %v}", s.Base, s.extra())
}
