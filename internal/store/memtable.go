// Package store implements the distributed in-memory record store that the
// processing layer runs against — the counterpart of RamCloud in the paper
// (§6.1). It provides exactly the storage contract §4 and §5 assume:
//
//   - consistent get/put on single records,
//   - LL/SC: every cell carries a stamp that changes on every write, and
//     conditional writes fail if the stamp moved (this is stronger than
//     compare-and-swap and immune to the ABA problem, §4.1),
//   - atomic counters (tid and rid allocation, §4.2/§5.1),
//   - ordered scans (transaction-log recovery, analytics),
//   - range partitioning of the key-hash space across storage nodes, with
//     synchronous replication and master fail-over (§4.4.2),
//   - batched requests (§5.1).
package store

import (
	"bytes"
	"math/rand"
)

// cell is one stored record on a node. Deleted keys keep a tombstone cell
// (dead=true) so that replication can resolve write/delete races by stamp.
type cell struct {
	val     []byte
	stamp   uint64
	counter int64
	isCtr   bool
	dead    bool
}

const maxLevel = 24

// memtable is the node-local ordered map: an in-memory skiplist keyed by
// []byte. It supports forward and reverse ordered scans (the transaction
// log is iterated backwards during recovery, §4.4.1). Callers synchronize
// externally.
type memtable struct {
	head  *mtNode
	tail  *mtNode // sentinel for reverse scans
	level int
	size  int
	rng   *rand.Rand
}

type mtNode struct {
	key  []byte
	cell cell
	// hits counts client accesses of this key on this node — node-local
	// telemetry (never replicated or compared) that weights data-aware
	// split points by load rather than key count.
	hits uint64
	next []*mtNode
	prev *mtNode // level-0 back pointer
}

func newMemtable(seed int64) *memtable {
	head := &mtNode{next: make([]*mtNode, maxLevel)}
	return &memtable{head: head, level: 1, rng: rand.New(rand.NewSource(seed))}
}

func (m *memtable) len() int { return m.size }

func (m *memtable) randomLevel() int {
	l := 1
	for l < maxLevel && m.rng.Intn(4) == 0 {
		l++
	}
	return l
}

// findPredecessors fills update with the rightmost node at each level whose
// key is < key, and returns the level-0 successor candidate.
func (m *memtable) findPredecessors(key []byte, update *[maxLevel]*mtNode) *mtNode {
	x := m.head
	for i := m.level - 1; i >= 0; i-- {
		for x.next[i] != nil && bytes.Compare(x.next[i].key, key) < 0 {
			x = x.next[i]
		}
		update[i] = x
	}
	return x.next[0]
}

// get returns the cell stored under key.
func (m *memtable) get(key []byte) (cell, bool) {
	x := m.head
	for i := m.level - 1; i >= 0; i-- {
		for x.next[i] != nil && bytes.Compare(x.next[i].key, key) < 0 {
			x = x.next[i]
		}
	}
	n := x.next[0]
	if n != nil && bytes.Equal(n.key, key) {
		return n.cell, true
	}
	return cell{}, false
}

// set stores c under key, inserting or overwriting.
func (m *memtable) set(key []byte, c cell) {
	var update [maxLevel]*mtNode
	n := m.findPredecessors(key, &update)
	if n != nil && bytes.Equal(n.key, key) {
		n.cell = c
		return
	}
	lvl := m.randomLevel()
	if lvl > m.level {
		for i := m.level; i < lvl; i++ {
			update[i] = m.head
		}
		m.level = lvl
	}
	nn := &mtNode{key: append([]byte(nil), key...), cell: c, next: make([]*mtNode, lvl)}
	for i := 0; i < lvl; i++ {
		nn.next[i] = update[i].next[i]
		update[i].next[i] = nn
	}
	nn.prev = update[0]
	if nn.next[0] != nil {
		nn.next[0].prev = nn
	} else {
		m.tail = nn
	}
	m.size++
}

// touch bumps key's access counter, if the key is present.
func (m *memtable) touch(key []byte) {
	x := m.head
	for i := m.level - 1; i >= 0; i-- {
		for x.next[i] != nil && bytes.Compare(x.next[i].key, key) < 0 {
			x = x.next[i]
		}
	}
	if n := x.next[0]; n != nil && bytes.Equal(n.key, key) {
		n.hits++
	}
}

// scanHits is a forward scan that also yields each key's access counter.
func (m *memtable) scanHits(fn func(key []byte, c cell, hits uint64) bool) {
	for n := m.head.next[0]; n != nil; n = n.next[0] {
		if !fn(n.key, n.cell, n.hits) {
			return
		}
	}
}

// delete removes key, reporting whether it was present.
func (m *memtable) delete(key []byte) bool {
	var update [maxLevel]*mtNode
	n := m.findPredecessors(key, &update)
	if n == nil || !bytes.Equal(n.key, key) {
		return false
	}
	for i := 0; i < m.level; i++ {
		if update[i].next[i] == n {
			update[i].next[i] = n.next[i]
		}
	}
	if n.next[0] != nil {
		n.next[0].prev = update[0]
	} else {
		if m.tail == n {
			if update[0] == m.head {
				m.tail = nil
			} else {
				m.tail = update[0]
			}
		}
	}
	for m.level > 1 && m.head.next[m.level-1] == nil {
		m.level--
	}
	m.size--
	return true
}

// scanAfter calls fn for every key > after in ascending order (every key when
// after is nil) until fn returns false. It is the resume step of a cursor
// walk that releases the caller's lock between batches: after is the last key
// the previous batch handled, and need not still be present.
func (m *memtable) scanAfter(after []byte, fn func(key []byte, c cell) bool) {
	x := m.head
	if after != nil {
		for i := m.level - 1; i >= 0; i-- {
			for x.next[i] != nil && bytes.Compare(x.next[i].key, after) <= 0 {
				x = x.next[i]
			}
		}
	}
	for n := x.next[0]; n != nil; n = n.next[0] {
		if !fn(n.key, n.cell) {
			return
		}
	}
}

// scan calls fn for keys in [lo, hi) in ascending order (or descending when
// reverse is set, starting just below hi). Scanning stops when fn returns
// false. A nil hi means "no upper bound"; a nil/empty lo means "no lower
// bound".
func (m *memtable) scan(lo, hi []byte, reverse bool, fn func(key []byte, c cell) bool) {
	if !reverse {
		x := m.head
		for i := m.level - 1; i >= 0; i-- {
			for x.next[i] != nil && (len(lo) > 0 && bytes.Compare(x.next[i].key, lo) < 0) {
				x = x.next[i]
			}
		}
		for n := x.next[0]; n != nil; n = n.next[0] {
			if hi != nil && bytes.Compare(n.key, hi) >= 0 {
				return
			}
			if !fn(n.key, n.cell) {
				return
			}
		}
		return
	}
	// Reverse: find the last node with key < hi (or the tail when hi nil).
	var n *mtNode
	if hi == nil {
		n = m.tail
	} else {
		x := m.head
		for i := m.level - 1; i >= 0; i-- {
			for x.next[i] != nil && bytes.Compare(x.next[i].key, hi) < 0 {
				x = x.next[i]
			}
		}
		if x == m.head {
			return
		}
		n = x
	}
	for n != nil && n != m.head {
		if len(lo) > 0 && bytes.Compare(n.key, lo) < 0 {
			return
		}
		if !fn(n.key, n.cell) {
			return
		}
		n = n.prev
	}
}
