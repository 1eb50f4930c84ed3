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
