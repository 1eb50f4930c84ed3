package mvcc

import (
	"math/rand"
	"testing"

	"tell/internal/wire"
)

// randSnapshot builds a plausible descriptor: a base plus a sparse band of
// committed tids above it, like a CM under concurrent load produces.
func randSnapshot(rng *rand.Rand, base uint64) *Snapshot {
	s := NewSnapshot(base)
	n := rng.Intn(40)
	for i := 0; i < n; i++ {
		s.Add(base + 1 + uint64(rng.Intn(400)))
	}
	return s
}

// advance evolves s the way a CM does: commit a few of the missing tids near
// the base, then normalize.
func advance(rng *rand.Rand, s *Snapshot) *Snapshot {
	out := s.Clone()
	n := 1 + rng.Intn(30)
	for i := 0; i < n; i++ {
		out.Add(out.Base + 1 + uint64(rng.Intn(300)))
	}
	out.Normalize()
	return out
}

func TestDeltaDiffApply(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		old := randSnapshot(rng, uint64(rng.Intn(1000)))
		new := advance(rng, old)
		d := Diff(old, new)
		if d == nil {
			t.Fatalf("trial %d: Diff returned nil for advancing snapshots", trial)
		}
		got, err := d.Apply(old)
		if err != nil {
			t.Fatalf("trial %d: Apply: %v", trial, err)
		}
		if !got.Equal(new) {
			t.Fatalf("trial %d: Apply(old, Diff(old,new)) = %v, want %v (old %v, delta %+v)",
				trial, got, new, old, d)
		}
		if got.Base != new.Base {
			t.Fatalf("trial %d: base %d, want %d", trial, got.Base, new.Base)
		}
	}
}

func TestDeltaIdentity(t *testing.T) {
	s := NewSnapshot(10)
	s.Add(12)
	s.Add(14)
	d := Diff(s, s)
	if d.Advance != 0 || len(d.Patches) != 0 {
		t.Fatalf("self-diff not empty: %+v", d)
	}
	got, err := d.Apply(s)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if !got.Equal(s) {
		t.Fatalf("identity apply changed the set: %v vs %v", got, s)
	}
}

func TestDeltaBackwardsBase(t *testing.T) {
	old := NewSnapshot(100)
	new := NewSnapshot(50)
	if d := Diff(old, new); d != nil {
		t.Fatalf("Diff across a base regression must be nil (full-resync signal), got %+v", d)
	}
}

func TestDeltaLargeAdvance(t *testing.T) {
	// The whole old bitset falls below the new base.
	old := NewSnapshot(0)
	for i := 1; i <= 200; i++ {
		old.Add(uint64(i) * 2)
	}
	new := NewSnapshot(100_000)
	new.Add(100_003)
	d := Diff(old, new)
	got, err := d.Apply(old)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if !got.Equal(new) {
		t.Fatalf("got %v, want %v", got, new)
	}
}

func TestDeltaEncodeDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		old := randSnapshot(rng, uint64(rng.Intn(1000)))
		new := advance(rng, old)
		d := Diff(old, new)
		w := wire.NewWriter(64)
		d.EncodeTo(w)
		r := wire.NewReader(w.Bytes())
		got, err := DecodeSnapshotDeltaFrom(r)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if err := r.Close(); err != nil {
			t.Fatalf("trailing bytes: %v", err)
		}
		applied, err := got.Apply(old)
		if err != nil {
			t.Fatalf("apply decoded: %v", err)
		}
		if !applied.Equal(new) {
			t.Fatalf("decoded delta does not reproduce target: %v vs %v", applied, new)
		}
	}
}

func TestDeltaApplyBoundsPatchIndex(t *testing.T) {
	d := &SnapshotDelta{Patches: []DeltaPatch{{Index: maxDeltaWords, Word: 1}}}
	if _, err := d.Apply(NewSnapshot(0)); err == nil {
		t.Fatal("out-of-range patch index must be rejected")
	}
}

// TestDeltaDecodeGarbage feeds random bytes to the decoder: it must never
// panic, and whatever decodes must survive Apply without panicking either.
func TestDeltaDecodeGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := NewSnapshot(40)
	base.Add(42)
	for trial := 0; trial < 2000; trial++ {
		buf := make([]byte, rng.Intn(60))
		rng.Read(buf)
		d, err := DecodeSnapshotDeltaFrom(wire.NewReader(buf))
		if err != nil {
			continue
		}
		if _, err := d.Apply(base); err != nil {
			continue // bound rejection is fine; panics are not
		}
	}
}

func TestDeltaSmallerThanFull(t *testing.T) {
	// A realistic steady-state step: base advances a little, a few bits
	// flip. The delta must be much smaller than the full descriptor.
	old := NewSnapshot(1000)
	for i := 0; i < 60; i++ {
		old.Add(1001 + uint64(i*3))
	}
	new := old.Clone()
	new.Add(1001)
	new.Add(1002)
	new.Normalize()
	d := Diff(old, new)
	w := wire.NewWriter(64)
	d.EncodeTo(w)
	fw := wire.NewWriter(64)
	new.EncodeTo(fw)
	if len(w.Bytes()) >= len(fw.Bytes()) {
		t.Fatalf("delta (%dB) not smaller than full descriptor (%dB)", len(w.Bytes()), len(fw.Bytes()))
	}
	if d.EncodedSize() < len(w.Bytes()) {
		t.Fatalf("EncodedSize %d underestimates actual %d", d.EncodedSize(), len(w.Bytes()))
	}
}
