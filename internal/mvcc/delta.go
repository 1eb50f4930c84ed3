package mvcc

import (
	"fmt"

	"tell/internal/wire"
)

// SnapshotDelta is the difference between two snapshot descriptors taken
// from the same monotonically advancing source (a commit manager's committed
// set, §4.2). Descriptors evolve by advancing the base and flipping a few
// bits near it, so the delta — the base advance plus sparse XOR patches of
// the bitset — is much smaller than the full descriptor, which every start()
// would otherwise retransmit.
type SnapshotDelta struct {
	// Advance is how far the base moved: new.Base - old.Base.
	Advance uint64
	// Patches XOR the rebased old bitset into the new one. Indices are
	// word positions relative to the new base, ascending.
	Patches []DeltaPatch
}

// DeltaPatch corrects one 64-bit word of the rebased bitset.
type DeltaPatch struct {
	Index uint64 // word index: covers tids newBase+1+64·Index .. newBase+64·(Index+1)
	Word  uint64 // XOR mask
}

// maxDeltaWords bounds the bitset a decoded delta may address, so corrupt
// input cannot force a huge allocation. 1<<16 words cover 4M in-flight tids
// above the base — far beyond any real descriptor.
const maxDeltaWords = 1 << 16

// rebaseBits shifts a bitset down by shift positions: the result anchored at
// Base+shift covers the same members above that new base. Members that fall
// at or below the new base drop out (they become implicit). Trailing zero
// words are trimmed.
func rebaseBits(bits []uint64, shift uint64) []uint64 {
	ws := shift / 64
	bs := uint(shift % 64)
	if ws >= uint64(len(bits)) {
		return nil
	}
	out := make([]uint64, 0, uint64(len(bits))-ws)
	for i := int(ws); i < len(bits); i++ {
		w := bits[i] >> bs
		if bs > 0 && i+1 < len(bits) {
			w |= bits[i+1] << (64 - bs)
		}
		out = append(out, w)
	}
	for len(out) > 0 && out[len(out)-1] == 0 {
		out = out[:len(out)-1]
	}
	return out
}

// Diff computes the delta that turns old into new. It returns nil when
// new.Base has moved backwards (the caller must fall back to sending the
// full descriptor — bases only regress across a fail-over to a manager with
// stale state).
func Diff(old, new *Snapshot) *SnapshotDelta {
	if new.Base < old.Base {
		return nil
	}
	shift := new.Base - old.Base
	ob := rebaseBits(old.bits, shift)
	d := &SnapshotDelta{Advance: shift}
	n := len(ob)
	if len(new.bits) > n {
		n = len(new.bits)
	}
	for i := 0; i < n; i++ {
		var o, nw uint64
		if i < len(ob) {
			o = ob[i]
		}
		if i < len(new.bits) {
			nw = new.bits[i]
		}
		if x := o ^ nw; x != 0 {
			d.Patches = append(d.Patches, DeltaPatch{Index: uint64(i), Word: x})
		}
	}
	return d
}

// Apply reconstructs the new snapshot from old and the delta. old is not
// modified. It fails on deltas addressing an implausibly large bitset
// (corrupt or hostile input).
func (d *SnapshotDelta) Apply(old *Snapshot) (*Snapshot, error) {
	out := &Snapshot{Base: old.Base + d.Advance, bits: rebaseBits(old.bits, d.Advance)}
	for _, p := range d.Patches {
		if p.Index >= maxDeltaWords {
			return nil, fmt.Errorf("mvcc: delta patch index %d out of range", p.Index)
		}
		for uint64(len(out.bits)) <= p.Index {
			out.bits = append(out.bits, 0)
		}
		out.bits[p.Index] ^= p.Word
	}
	for len(out.bits) > 0 && out.bits[len(out.bits)-1] == 0 {
		out.bits = out.bits[:len(out.bits)-1]
	}
	return out, nil
}

// EncodedSize is the exact wire size of the delta, used to decide whether
// the delta actually beats retransmitting the full descriptor. (It must not
// over-estimate: typical descriptors are small, so a pessimistic bound
// would suppress the delta exactly where shipping it is cheapest.)
func (d *SnapshotDelta) EncodedSize() int {
	n := wire.UvarintLen(d.Advance) + wire.UvarintLen(uint64(len(d.Patches)))
	for i := range d.Patches {
		n += wire.UvarintLen(d.Patches[i].Index) + 8
	}
	return n
}

// EncodeTo appends the delta to w.
func (d *SnapshotDelta) EncodeTo(w *wire.Writer) {
	w.Uvarint(d.Advance)
	w.Uvarint(uint64(len(d.Patches)))
	for i := range d.Patches {
		w.Uvarint(d.Patches[i].Index)
		w.U64(d.Patches[i].Word)
	}
}

// DecodeSnapshotDeltaFrom reads a delta from r.
func DecodeSnapshotDeltaFrom(r *wire.Reader) (*SnapshotDelta, error) {
	d := &SnapshotDelta{Advance: r.Uvarint()}
	n := r.Count(9)
	for i := 0; i < n; i++ {
		d.Patches = append(d.Patches, DeltaPatch{Index: r.Uvarint(), Word: r.U64()})
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return d, nil
}
