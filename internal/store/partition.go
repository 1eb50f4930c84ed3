package store

import (
	"hash/fnv"

	"tell/internal/wire"
)

// KeyHash maps a key into the 64-bit hash space that partitions divide up.
// Like RamCloud tablets, partitions own contiguous ranges of key *hashes*,
// which balances load regardless of key distribution while still being
// "range partitioning" over the hash space.
func KeyHash(key []byte) uint64 {
	h := fnv.New64a()
	h.Write(key)
	return h.Sum64()
}

// Partition is one shard of the key-hash space.
type Partition struct {
	ID     uint64
	LoHash uint64 // inclusive
	HiHash uint64 // inclusive
	// Master is the address serving reads and writes; Replicas receive
	// synchronous copies of every mutation (§4.4.2).
	Master   string
	Replicas []string
}

// Owns reports whether the partition covers hash h.
func (p *Partition) Owns(h uint64) bool { return h >= p.LoHash && h <= p.HiHash }

// PartitionMap is the lookup service state: the authoritative assignment of
// hash ranges to storage nodes. Epoch increases on every change (fail-over,
// re-replication), letting clients detect staleness.
type PartitionMap struct {
	Epoch      uint64
	Partitions []Partition
}

// Lookup returns the partition owning key hash h.
func (m *PartitionMap) Lookup(h uint64) (*Partition, bool) {
	for i := range m.Partitions {
		if m.Partitions[i].Owns(h) {
			return &m.Partitions[i], true
		}
	}
	return nil, false
}

// LookupKey returns the partition owning key.
func (m *PartitionMap) LookupKey(key []byte) (*Partition, bool) {
	return m.Lookup(KeyHash(key))
}

// Masters returns the distinct master addresses in map order.
func (m *PartitionMap) Masters() []string {
	seen := make(map[string]bool)
	var out []string
	for i := range m.Partitions {
		a := m.Partitions[i].Master
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

// Clone returns a deep copy.
func (m *PartitionMap) Clone() *PartitionMap {
	c := &PartitionMap{Epoch: m.Epoch, Partitions: make([]Partition, len(m.Partitions))}
	copy(c.Partitions, m.Partitions)
	for i := range c.Partitions {
		c.Partitions[i].Replicas = append([]string(nil), m.Partitions[i].Replicas...)
	}
	return c
}

// EvenPartitions splits the hash space into n equal ranges.
func EvenPartitions(n int) []Partition {
	if n <= 0 {
		panic("store: need at least one partition")
	}
	parts := make([]Partition, n)
	step := ^uint64(0) / uint64(n)
	for i := 0; i < n; i++ {
		lo := uint64(i) * step
		hi := lo + step - 1
		if i == n-1 {
			hi = ^uint64(0)
		}
		parts[i] = Partition{ID: uint64(i), LoHash: lo, HiHash: hi}
	}
	return parts
}

// Encode serializes the map (without any protocol framing; the meta
// protocol wraps it).
func (m *PartitionMap) Encode() []byte {
	w := wire.NewWriter(64)
	m.EncodeTo(w)
	return w.Bytes()
}

// EncodeTo appends the serialized map to w.
func (m *PartitionMap) EncodeTo(w *wire.Writer) {
	w.Uvarint(m.Epoch)
	w.Uvarint(uint64(len(m.Partitions)))
	for i := range m.Partitions {
		p := &m.Partitions[i]
		w.Uvarint(p.ID)
		w.U64(p.LoHash)
		w.U64(p.HiHash)
		w.String(p.Master)
		w.Uvarint(uint64(len(p.Replicas)))
		for _, r := range p.Replicas {
			w.String(r)
		}
	}
}

// DecodePartitionMap parses a serialized PartitionMap.
func DecodePartitionMap(b []byte) (*PartitionMap, error) {
	r := wire.NewReader(b)
	m, err := DecodePartitionMapFrom(r)
	if err != nil {
		return nil, err
	}
	return m, r.Close()
}

// DecodePartitionMapFrom parses a serialized PartitionMap from r.
func DecodePartitionMapFrom(r *wire.Reader) (*PartitionMap, error) {
	m := &PartitionMap{Epoch: r.Uvarint()}
	n := r.Count(18)
	m.Partitions = make([]Partition, n)
	for i := range m.Partitions {
		p := &m.Partitions[i]
		p.ID = r.Uvarint()
		p.LoHash = r.U64()
		p.HiHash = r.U64()
		p.Master = r.String()
		nr := r.Count(1)
		for j := 0; j < nr; j++ {
			p.Replicas = append(p.Replicas, r.String())
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return m, nil
}
