package btree

import "tell/internal/env"

// Delete removes key from the tree, reporting whether it was present.
func (t *Tree) Delete(ctx env.Ctx, key []byte) (bool, error) {
	removed, err := t.DeleteMany(ctx, nil, [][]byte{key})
	if err != nil {
		return false, err
	}
	return removed[0], nil
}

// Posting reports how many of the handle's separator posts are running.
func (t *Tree) Posting() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.posting)
}

// Unparented walks every level of the stored tree and returns the nodes no
// node on the level above lists as a child, and any node beside the root
// on its level (a root growth half done). Once every separator post has
// landed there are none.
func (t *Tree) Unparented(ctx env.Ctx) ([]uint64, error) {
	rp, err := t.loadRoot(ctx, true)
	if err != nil {
		return nil, err
	}
	var lost []uint64
	var parents map[uint64]bool // children of the level above; nil at the root's
	for id := rp.rootID; id != 0; {
		children, first := map[uint64]bool{}, uint64(0)
		for cur := id; cur != 0; {
			n, _, err := t.loadNodeFresh(ctx, cur)
			if err != nil {
				return nil, err
			}
			if parents == nil && cur != rp.rootID || parents != nil && !parents[cur] {
				lost = append(lost, cur)
			}
			if !n.leaf() {
				if first == 0 {
					first = n.children[0]
				}
				for _, c := range n.children {
					children[c] = true
				}
			}
			cur = n.next
		}
		id, parents = first, children
	}
	return lost, nil
}

// Scan visits entries with lo <= key < hi in ascending order, following the
// leaf chain. fn returning false stops the scan. hi == nil means unbounded.
func (t *Tree) Scan(ctx env.Ctx, lo, hi []byte, fn func(key, val []byte) bool) error {
	from, err := t.ReadLeaf(ctx, lo)
	if err != nil {
		return err
	}
	return t.ScanFrom(ctx, &from, hi, fn)
}
