// Package btree implements the paper's latch-free distributed B+tree
// (§5.3). Every tree node is stored as one key-value pair in the shared
// record store; node updates are synchronized across processing nodes with
// LL/SC conditional writes, never latches. The structure is a B-link tree
// (Lehman-Yao): every node carries a high key and a right-sibling pointer,
// so readers that race with a split simply "move right" instead of
// retrying from the root.
//
// Inner nodes are cached on the processing node; leaf nodes are always
// fetched from the store (§5.3.1). When a leaf's range no longer matches
// what the cached parent promised, the parent is refreshed from the store.
//
// Indexes are version-unaware (§5.3.2): one entry per record, not per
// version, so entries are only inserted when the indexed key changes, and
// readers must re-validate fetched records against their snapshots.
package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"tell/internal/wire"
)

// node is the in-memory form of one tree node.
type node struct {
	id    uint64
	level int    // 0 = leaf
	next  uint64 // right sibling; 0 = rightmost
	// highKey is the exclusive upper bound of this node's key space;
	// nil means +infinity (rightmost node of its level).
	highKey []byte
	keys    [][]byte
	// leaf payloads (level 0).
	vals [][]byte
	// child node ids (level > 0): len(children) == len(keys)+1;
	// children[i] covers keys < keys[i], children[len(keys)] the rest.
	children []uint64
}

func (n *node) leaf() bool { return n.level == 0 }

// covers reports whether key belongs to this node's range (no right-move
// needed).
func (n *node) covers(key []byte) bool {
	return n.highKey == nil || bytes.Compare(key, n.highKey) < 0
}

// findKey returns the position of key in n.keys and whether it is present.
func (n *node) findKey(key []byte) (int, bool) {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(n.keys[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.keys) && bytes.Equal(n.keys[lo], key)
}

// childFor returns the child id to follow for key.
func (n *node) childFor(key []byte) uint64 {
	// First key strictly greater than `key` bounds the child index.
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(n.keys[mid], key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return n.children[lo]
}

// clone returns a deep-enough copy for mutation (slices reallocated, key
// and value bytes shared).
func (n *node) clone() *node {
	c := &node{id: n.id, level: n.level, next: n.next, highKey: n.highKey}
	c.keys = append([][]byte(nil), n.keys...)
	c.vals = append([][]byte(nil), n.vals...)
	c.children = append([]uint64(nil), n.children...)
	return c
}

// insertLeaf inserts (key, val) into a leaf at position i.
func (n *node) insertLeaf(i int, key, val []byte) {
	n.keys = append(n.keys, nil)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = key
	n.vals = append(n.vals, nil)
	copy(n.vals[i+1:], n.vals[i:])
	n.vals[i] = val
}

// removeLeaf removes the entry at position i.
func (n *node) removeLeaf(i int) {
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.vals = append(n.vals[:i], n.vals[i+1:]...)
}

// insertChild inserts separator sep with right child at the proper slot of
// an inner node.
func (n *node) insertChild(sep []byte, child uint64) {
	i, _ := n.findKey(sep)
	n.keys = append(n.keys, nil)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = sep
	n.children = append(n.children, 0)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = child
}

// hasChild reports whether the inner node references child (used to make
// separator insertion idempotent across retries).
func (n *node) hasChild(child uint64) bool {
	for _, c := range n.children {
		if c == child {
			return true
		}
	}
	return false
}

// encode serializes the node for storage.
func (n *node) encode() []byte {
	size := 16
	for i := range n.keys {
		size += len(n.keys[i]) + 4
	}
	for i := range n.vals {
		size += len(n.vals[i]) + 4
	}
	size += 8 * len(n.children)
	w := wire.NewWriter(size)
	w.Uvarint(uint64(n.level))
	w.Uvarint(n.next)
	if n.highKey == nil {
		w.Bool(false)
	} else {
		w.Bool(true)
		w.BytesN(n.highKey)
	}
	w.Uvarint(uint64(len(n.keys)))
	for _, k := range n.keys {
		w.BytesN(k)
	}
	if n.leaf() {
		for _, v := range n.vals {
			w.BytesN(v)
		}
	} else {
		for _, c := range n.children {
			w.Uvarint(c)
		}
	}
	return w.Bytes()
}

// decodeNode parses a stored node. The node owns one private copy of b (the
// caller's buffer may be recycled); its high key, keys and values are
// subslices of that copy, so a node costs four allocations however many
// entries it holds. Each subslice's capacity is clipped to its length:
// clones share these bytes, and an append by a caller handed a key or value
// must reallocate rather than run into the neighbouring entry.
func decodeNode(id uint64, b []byte) (*node, error) {
	var r wire.Reader
	r.Reset(append([]byte(nil), b...))
	n := &node{id: id}
	n.level = int(r.Uvarint())
	n.next = r.Uvarint()
	if r.Bool() {
		n.highKey = clip(r.BytesN())
	}
	cnt := r.Count(1)
	n.keys = make([][]byte, cnt)
	for i := range n.keys {
		n.keys[i] = clip(r.BytesN())
	}
	if n.leaf() {
		n.vals = make([][]byte, cnt)
		for i := range n.vals {
			n.vals[i] = clip(r.BytesN())
		}
	} else {
		n.children = make([]uint64, cnt+1)
		for i := range n.children {
			n.children[i] = r.Uvarint()
		}
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return n, nil
}

// clip returns b with its capacity cut to its length; empty becomes nil, as
// an absent high key (+infinity) is.
func clip(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return b[:len(b):len(b)]
}

// rootPtr is the tree's root record.
type rootPtr struct {
	rootID uint64
	height int // root level
}

func (rp rootPtr) encode() []byte {
	w := wire.NewWriter(12)
	w.Uvarint(rp.rootID)
	w.Uvarint(uint64(rp.height))
	return w.Bytes()
}

func decodeRootPtr(b []byte) (rootPtr, error) {
	r := wire.NewReader(b)
	rp := rootPtr{rootID: r.Uvarint(), height: int(r.Uvarint())}
	if err := r.Close(); err != nil {
		return rootPtr{}, err
	}
	return rp, nil
}

// Store key layout.
func nodeKey(name string, id uint64) []byte {
	k := make([]byte, 0, len(name)+16)
	k = append(k, "idx/"...)
	k = append(k, name...)
	k = append(k, "/n/"...)
	var idb [8]byte
	binary.BigEndian.PutUint64(idb[:], id)
	return append(k, idb[:]...)
}

func rootKey(name string) []byte { return []byte("idx/" + name + "/root") }
func ctrKey(name string) []byte  { return []byte("idx/" + name + "/ctr") }

// sanity guard for debugging output.
func (n *node) String() string {
	kind := "leaf"
	if !n.leaf() {
		kind = fmt.Sprintf("inner(l%d)", n.level)
	}
	return fmt.Sprintf("%s#%d[%d keys, next=%d]", kind, n.id, len(n.keys), n.next)
}
