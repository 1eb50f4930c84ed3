package btree

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"time"

	"tell/internal/env"
	"tell/internal/sanitize"
	"tell/internal/store"
)

// Errors returned by tree operations.
var (
	// ErrRetriesExhausted means contention kept an operation from
	// completing within the retry budget.
	ErrRetriesExhausted = errors.New("btree: retries exhausted")
)

// Tree is a processing node's handle to one shared distributed B+tree.
// Multiple Trees (one per PN) operate on the same stored structure
// concurrently; each keeps its own inner-node cache.
type Tree struct {
	name string
	sc   *store.Client

	// MaxKeys is the fanout bound per node.
	MaxKeys int
	// CacheInner toggles the inner-node cache (§5.3.1). Disabled only by
	// the caching ablation benchmark.
	CacheInner bool
	// Retries bounds optimistic retry loops.
	Retries int

	mu        sanitize.Mutex
	cache     map[uint64]*node
	root      *rootPtr
	idNext    uint64
	idEnd     uint64
	reads     uint64
	cacheHits uint64
}

// idRangeSize is how many node ids one counter bump reserves.
const idRangeSize = 64

// New returns a handle to the tree stored under name. The tree must have
// been created once with Create (or BulkBuild).
func New(name string, sc *store.Client) *Tree {
	t := &Tree{
		name:       name,
		sc:         sc,
		MaxKeys:    64,
		CacheInner: true,
		Retries:    64,
		cache:      make(map[uint64]*node),
	}
	t.mu.SetName("btree.Tree.mu")
	return t
}

// Stats returns (store reads issued, inner-cache hits).
func (t *Tree) Stats() (reads, hits uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reads, t.cacheHits
}

// Create initializes an empty tree: a single empty leaf as root. It is not
// an error if the tree already exists (first creator wins).
func Create(ctx env.Ctx, name string, sc *store.Client) error {
	leaf := &node{id: 1}
	if _, err := sc.CondPut(ctx, nodeKey(name, 1), leaf.encode(), 0); err != nil && err != store.ErrConflict {
		return err
	}
	rp := rootPtr{rootID: 1, height: 0}
	if _, err := sc.CondPut(ctx, rootKey(name), rp.encode(), 0); err != nil && err != store.ErrConflict {
		return err
	}
	// Make sure the id counter is past the initial leaf's id 1. A racing
	// creator may bump it twice; skipped ids are harmless.
	if v, err := sc.CounterAdd(ctx, ctrKey(name), 0); err != nil {
		return err
	} else if v < 1 {
		if _, err := sc.CounterAdd(ctx, ctrKey(name), 1); err != nil {
			return err
		}
	}
	return nil
}

// allocID reserves a fresh node id (range-cached per handle).
func (t *Tree) allocID(ctx env.Ctx) (uint64, error) {
	t.mu.Lock()
	if t.idNext <= t.idEnd && t.idNext != 0 {
		id := t.idNext
		t.idNext++
		t.mu.Unlock()
		return id, nil
	}
	t.mu.Unlock()
	hi, err := t.sc.CounterAdd(ctx, ctrKey(t.name), idRangeSize)
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	t.idNext = uint64(hi) - idRangeSize + 1
	t.idEnd = uint64(hi)
	id := t.idNext
	t.idNext++
	t.mu.Unlock()
	return id, nil
}

// loadRoot returns the (possibly cached) root pointer.
func (t *Tree) loadRoot(ctx env.Ctx, fresh bool) (rootPtr, error) {
	t.mu.Lock()
	if !fresh && t.root != nil {
		rp := *t.root
		t.mu.Unlock()
		return rp, nil
	}
	t.mu.Unlock()
	raw, _, err := t.sc.Get(ctx, rootKey(t.name))
	if err != nil {
		return rootPtr{}, err
	}
	rp, err := decodeRootPtr(raw)
	if err != nil {
		return rootPtr{}, err
	}
	t.mu.Lock()
	t.root = &rp
	t.mu.Unlock()
	return rp, nil
}

// loadNode fetches a node. Inner nodes may be served from and are added to
// the cache; leaves always come from the store with their LL stamp.
func (t *Tree) loadNode(ctx env.Ctx, id uint64, wantLeaf bool) (*node, uint64, error) {
	if !wantLeaf && t.CacheInner {
		t.mu.Lock()
		if n, ok := t.cache[id]; ok {
			t.cacheHits++
			t.mu.Unlock()
			return n, 0, nil
		}
		t.mu.Unlock()
	}
	raw, stamp, err := t.sc.Get(ctx, nodeKey(t.name, id))
	if err != nil {
		return nil, 0, err
	}
	t.mu.Lock()
	t.reads++
	t.mu.Unlock()
	n, err := decodeNode(id, raw)
	if err != nil {
		return nil, 0, err
	}
	if !n.leaf() && t.CacheInner {
		t.mu.Lock()
		t.cache[id] = n
		t.mu.Unlock()
	}
	return n, stamp, nil
}

// invalidate drops a node from the cache (stale parent detected, §5.3.1).
func (t *Tree) invalidate(id uint64) {
	t.mu.Lock()
	delete(t.cache, id)
	t.mu.Unlock()
}

// invalidateAll clears the cache and root pointer; used when the structure
// changed under us in a way right-moves cannot absorb.
func (t *Tree) invalidateAll() {
	t.mu.Lock()
	t.cache = make(map[uint64]*node)
	t.root = nil
	t.mu.Unlock()
}

// pathEntry is a visited node during descent.
type pathEntry struct {
	n     *node
	stamp uint64 // only set for nodes fetched fresh (leaves)
}

// descend walks from the root to the leaf covering key, applying B-link
// right-moves at every level, and returns the visited path (root first).
// If moves happened at leaf level, the cached parent is refreshed per
// §5.3.1's consistency rule.
func (t *Tree) descend(ctx env.Ctx, key []byte) ([]pathEntry, error) {
	for attempt := 0; attempt < t.Retries; attempt++ {
		path, err := t.tryDescend(ctx, key)
		if err == nil {
			return path, nil
		}
		if err != store.ErrNotFound {
			return nil, err
		}
		// A cached pointer led to a node that no longer exists; drop
		// caches and retry from a fresh root.
		t.invalidateAll()
	}
	return nil, ErrRetriesExhausted
}

func (t *Tree) tryDescend(ctx env.Ctx, key []byte) ([]pathEntry, error) {
	rp, err := t.loadRoot(ctx, false)
	if err != nil {
		if err == store.ErrNotFound {
			// Possibly a stale cached pointer; refetch once.
			if rp, err = t.loadRoot(ctx, true); err != nil {
				return nil, err
			}
		} else {
			return nil, err
		}
	}
	var path []pathEntry
	id := rp.rootID
	level := rp.height
	for {
		wantLeaf := level == 0
		n, stamp, err := t.loadNode(ctx, id, wantLeaf)
		if err != nil {
			if err == store.ErrNotFound && len(path) == 0 {
				// Root pointer was stale.
				if rp2, err2 := t.loadRoot(ctx, true); err2 == nil && rp2.rootID != id {
					id = rp2.rootID
					level = rp2.height
					continue
				}
			}
			return nil, err
		}
		// B-link move right while the key is beyond this node's range.
		moved := 0
		for !n.covers(key) && n.next != 0 {
			id = n.next
			n, stamp, err = t.loadNode(ctx, id, wantLeaf)
			if err != nil {
				return nil, err
			}
			moved++
		}
		if moved > 0 && len(path) > 0 {
			// The parent's routing was stale (the child split):
			// refresh it so future traversals go direct.
			t.invalidate(path[len(path)-1].n.id)
		}
		path = append(path, pathEntry{n: n, stamp: stamp})
		if n.leaf() {
			return path, nil
		}
		if len(n.children) == 0 {
			return nil, fmt.Errorf("btree: inner node %d has no children", n.id)
		}
		id = n.childFor(key)
		level = n.level - 1
	}
}

// Lookup returns the value stored under key.
func (t *Tree) Lookup(ctx env.Ctx, key []byte) ([]byte, bool, error) {
	path, err := t.descend(ctx, key)
	if err != nil {
		return nil, false, err
	}
	leaf := path[len(path)-1].n
	if i, ok := leaf.findKey(key); ok {
		return leaf.vals[i], true, nil
	}
	return nil, false, nil
}

// Insert adds (key, val) if key is absent. It reports whether the key
// already existed (in which case nothing changes).
func (t *Tree) Insert(ctx env.Ctx, key, val []byte) (existed bool, err error) {
	ex, err := t.InsertMany(ctx, [][]byte{key}, [][]byte{val})
	if err != nil {
		return false, err
	}
	return ex[0], nil
}

// InsertMany adds every (keys[i], vals[i]) whose key is absent and reports
// per entry whether its key already existed; a key given twice is inserted
// once and reported as existing the second time. Entries that share a leaf
// are written together: each round descends to the leaf covering the lowest
// pending key, merges every pending key that leaf covers (at most MaxKeys
// new ones, so the result splits at most once) and installs the leaf with
// one conditional put (§5.3). A conflict retries only that round's keys.
func (t *Tree) InsertMany(ctx env.Ctx, keys, vals [][]byte) (existed []bool, err error) {
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return bytes.Compare(keys[a], keys[b]) })
	existed = make([]bool, len(keys))
	for p, raced := 0, 0; p < len(order); {
		n, ok, err := t.insertRound(ctx, keys, vals, order[p:], existed)
		if err != nil {
			return nil, err
		}
		if ok {
			p, raced = p+n, 0
			continue
		}
		if raced++; raced == t.Retries {
			return nil, ErrRetriesExhausted
		}
	}
	return existed, nil
}

// insertRound installs the entries of pending (indexes into keys and vals,
// in key order) that fall into the leaf covering the first of them, and
// reports how many of them it settled. ok is false when the leaf write
// raced with another writer; nothing was settled then.
func (t *Tree) insertRound(ctx env.Ctx, keys, vals [][]byte, pending []int, existed []bool) (n int, ok bool, err error) {
	path, err := t.descend(ctx, keys[pending[0]])
	if err != nil {
		return 0, false, err
	}
	leaf := path[len(path)-1].n
	stamp := path[len(path)-1].stamp
	nl, added := leaf, 0
	for ; n < len(pending) && leaf.covers(keys[pending[n]]) && added < t.MaxKeys; n++ {
		e := pending[n]
		i, found := nl.findKey(keys[e])
		existed[e] = found
		if found {
			continue
		}
		if nl == leaf {
			nl = leaf.clone()
		}
		nl.insertLeaf(i, keys[e], vals[e])
		added++
	}
	if added == 0 {
		return n, true, nil
	}
	if len(nl.keys) <= t.MaxKeys {
		_, err := t.sc.CondPut(ctx, nodeKey(t.name, leaf.id), nl.encode(), stamp)
		if err == store.ErrConflict || err == store.ErrNotFound {
			return 0, false, nil
		}
		return n, err == nil, err
	}
	ok, err = t.splitLeafAndInsert(ctx, path, nl, stamp)
	return n, ok, err
}

// splitLeafAndInsert installs nl (already containing the new keys and
// exceeding MaxKeys) as a split pair. Returns done=false to signal a raced
// conflict needing a fresh retry.
func (t *Tree) splitLeafAndInsert(ctx env.Ctx, path []pathEntry, nl *node, stamp uint64) (bool, error) {
	rightID, err := t.allocID(ctx)
	if err != nil {
		return false, err
	}
	mid := len(nl.keys) / 2
	sep := nl.keys[mid]
	right := &node{
		id:      rightID,
		level:   0,
		next:    nl.next,
		highKey: nl.highKey,
		keys:    append([][]byte(nil), nl.keys[mid:]...),
		vals:    append([][]byte(nil), nl.vals[mid:]...),
	}
	left := &node{
		id:      nl.id,
		level:   0,
		next:    rightID,
		highKey: sep,
		keys:    append([][]byte(nil), nl.keys[:mid]...),
		vals:    append([][]byte(nil), nl.vals[:mid]...),
	}
	// 1. Create the right node (fresh id: cannot conflict).
	if _, err := t.sc.CondPut(ctx, nodeKey(t.name, rightID), right.encode(), 0); err != nil {
		return false, err
	}
	// 2. Shrink the left node conditionally: this is the linearization
	// point of the split.
	if _, err := t.sc.CondPut(ctx, nodeKey(t.name, left.id), left.encode(), stamp); err != nil {
		// Raced: orphan the right node and retry.
		t.sc.Delete(ctx, nodeKey(t.name, rightID), 0)
		if err == store.ErrConflict || err == store.ErrNotFound {
			return false, nil
		}
		return false, err
	}
	if sc := ctx.Trace(); sc.R.Enabled() {
		sc.R.Instant(sc.Span, ctx.Node().Name(), "btree-split-leaf",
			int64(left.id), int64(rightID))
	}
	// 3. Post the separator to the parent level. Readers already work via
	// the B-link pointer; this step only restores fast routing.
	if err := t.insertSeparator(ctx, path, len(path)-2, sep, rightID, left.id); err != nil {
		return false, err
	}
	return true, nil
}

// insertSeparator inserts (sep → rightID) into the inner level pathIdx
// (path[pathIdx] is the remembered parent; -1 means the split node was the
// root). leftID is the split node, used for idempotence and root creation.
func (t *Tree) insertSeparator(ctx env.Ctx, path []pathEntry, pathIdx int, sep []byte, rightID, leftID uint64) error {
	if pathIdx < 0 {
		return t.growRoot(ctx, sep, leftID, rightID)
	}
	parentID := path[pathIdx].n.id
	level := path[pathIdx].n.level
	for attempt := 0; attempt < t.Retries; attempt++ {
		raw, stamp, err := t.sc.Get(ctx, nodeKey(t.name, parentID))
		if err == store.ErrNotFound {
			// Parent vanished (e.g. superseded root): re-descend to
			// locate the current parent at this level.
			p, err := t.descendToLevel(ctx, sep, level)
			if err != nil {
				return err
			}
			parentID = p
			continue
		}
		if err != nil {
			return err
		}
		t.mu.Lock()
		t.reads++
		t.mu.Unlock()
		parent, err := decodeNode(parentID, raw)
		if err != nil {
			return err
		}
		// Move right if the separator belongs to a later sibling.
		if !parent.covers(sep) {
			if parent.next == 0 {
				return fmt.Errorf("btree: separator beyond rightmost parent")
			}
			parentID = parent.next
			continue
		}
		if parent.hasChild(rightID) {
			t.invalidate(parent.id)
			return nil // another retry already posted it
		}
		np := parent.clone()
		np.insertChild(sep, rightID)
		if len(np.keys) <= t.MaxKeys {
			if _, err := t.sc.CondPut(ctx, nodeKey(t.name, parentID), np.encode(), stamp); err != nil {
				if err == store.ErrConflict || err == store.ErrNotFound {
					continue
				}
				return err
			}
			t.invalidate(parentID)
			return nil
		}
		// Parent overflows: split it and recurse.
		if err := t.splitInner(ctx, path, pathIdx, np, stamp); err != nil {
			if err == errRaced {
				continue
			}
			return err
		}
		return nil
	}
	return ErrRetriesExhausted
}

// errRaced signals an internal optimistic conflict to the caller's loop.
var errRaced = errors.New("btree: raced")

// splitInner installs the overflowing inner node np as a split pair and
// posts the promoted separator one level up.
func (t *Tree) splitInner(ctx env.Ctx, path []pathEntry, pathIdx int, np *node, stamp uint64) error {
	rightID, err := t.allocID(ctx)
	if err != nil {
		return err
	}
	mid := len(np.keys) / 2
	promoted := np.keys[mid]
	right := &node{
		id:       rightID,
		level:    np.level,
		next:     np.next,
		highKey:  np.highKey,
		keys:     append([][]byte(nil), np.keys[mid+1:]...),
		children: append([]uint64(nil), np.children[mid+1:]...),
	}
	left := &node{
		id:       np.id,
		level:    np.level,
		next:     rightID,
		highKey:  promoted,
		keys:     append([][]byte(nil), np.keys[:mid]...),
		children: append([]uint64(nil), np.children[:mid+1]...),
	}
	if _, err := t.sc.CondPut(ctx, nodeKey(t.name, rightID), right.encode(), 0); err != nil {
		return err
	}
	if _, err := t.sc.CondPut(ctx, nodeKey(t.name, left.id), left.encode(), stamp); err != nil {
		t.sc.Delete(ctx, nodeKey(t.name, rightID), 0)
		if err == store.ErrConflict || err == store.ErrNotFound {
			return errRaced
		}
		return err
	}
	t.invalidate(left.id)
	if sc := ctx.Trace(); sc.R.Enabled() {
		sc.R.Instant(sc.Span, ctx.Node().Name(), "btree-split-inner",
			int64(left.id), int64(rightID))
	}
	return t.insertSeparator(ctx, path, pathIdx-1, promoted, rightID, left.id)
}

// growRoot installs a new root above a split old root.
func (t *Tree) growRoot(ctx env.Ctx, sep []byte, leftID, rightID uint64) error {
	// The new root sits one level above the split (left) node.
	leftNode, _, err := t.loadNodeFresh(ctx, leftID)
	if err != nil {
		return err
	}
	parentLevel := leftNode.level + 1
	for attempt := 0; attempt < t.Retries; attempt++ {
		raw, stamp, err := t.sc.Get(ctx, rootKey(t.name))
		if err != nil {
			return err
		}
		rp, err := decodeRootPtr(raw)
		if err != nil {
			return err
		}
		if rp.rootID != leftID {
			// Someone else already grew the root; our separator must
			// go into the existing parent level instead.
			parentID, err := t.descendToLevel(ctx, sep, parentLevel)
			if err != nil {
				return err
			}
			fake := []pathEntry{{n: &node{id: parentID, level: parentLevel}}}
			return t.insertSeparator(ctx, fake, 0, sep, rightID, leftID)
		}
		newRootID, err := t.allocID(ctx)
		if err != nil {
			return err
		}
		newRoot := &node{
			id:       newRootID,
			level:    leftNode.level + 1,
			keys:     [][]byte{sep},
			children: []uint64{leftID, rightID},
		}
		if _, err := t.sc.CondPut(ctx, nodeKey(t.name, newRootID), newRoot.encode(), 0); err != nil {
			return err
		}
		nrp := rootPtr{rootID: newRootID, height: newRoot.level}
		if _, err := t.sc.CondPut(ctx, rootKey(t.name), nrp.encode(), stamp); err != nil {
			t.sc.Delete(ctx, nodeKey(t.name, newRootID), 0)
			if err == store.ErrConflict {
				continue
			}
			return err
		}
		t.mu.Lock()
		t.root = &nrp
		t.mu.Unlock()
		if sc := ctx.Trace(); sc.R.Enabled() {
			sc.R.Instant(sc.Span, ctx.Node().Name(), "btree-grow-root",
				int64(newRootID), int64(newRoot.level))
		}
		return nil
	}
	return ErrRetriesExhausted
}

// loadNodeFresh fetches a node bypassing the cache.
func (t *Tree) loadNodeFresh(ctx env.Ctx, id uint64) (*node, uint64, error) {
	raw, stamp, err := t.sc.Get(ctx, nodeKey(t.name, id))
	if err != nil {
		return nil, 0, err
	}
	t.mu.Lock()
	t.reads++
	t.mu.Unlock()
	n, err := decodeNode(id, raw)
	return n, stamp, err
}

// rootGrowthWait bounds how long descendToLevel waits for another writer's
// root growth; rootGrowthPoll is how often it re-reads the root meanwhile.
const (
	rootGrowthWait = time.Second
	rootGrowthPoll = 50 * time.Microsecond
)

// descendToLevel finds the id of the node at the given level covering key,
// bypassing the cache. A root below that level means another writer has
// split the old root and not yet installed the new one above it: the root
// is re-read until it has grown, for up to rootGrowthWait.
func (t *Tree) descendToLevel(ctx env.Ctx, key []byte, level int) (uint64, error) {
	rp, err := t.loadRoot(ctx, true)
	for deadline := ctx.Now() + rootGrowthWait; err == nil && rp.height < level; {
		if ctx.Now() >= deadline {
			return 0, fmt.Errorf("btree: level %d not found", level)
		}
		ctx.Sleep(rootGrowthPoll)
		rp, err = t.loadRoot(ctx, true)
	}
	if err != nil {
		return 0, err
	}
	id := rp.rootID
	for {
		n, _, err := t.loadNodeFresh(ctx, id)
		if err != nil {
			return 0, err
		}
		for !n.covers(key) && n.next != 0 {
			id = n.next
			n, _, err = t.loadNodeFresh(ctx, id)
			if err != nil {
				return 0, err
			}
		}
		if n.level == level {
			return id, nil
		}
		if n.leaf() {
			return 0, fmt.Errorf("btree: level %d not found", level)
		}
		id = n.childFor(key)
	}
}

// Delete removes key from the tree, reporting whether it was present.
// Structural shrinking is lazy: emptied leaves stay linked (readers skip
// them via B-link pointers), matching the paper's lazy index GC stance.
func (t *Tree) Delete(ctx env.Ctx, key []byte) (bool, error) {
	for attempt := 0; attempt < t.Retries; attempt++ {
		path, err := t.descend(ctx, key)
		if err != nil {
			return false, err
		}
		leaf := path[len(path)-1].n
		stamp := path[len(path)-1].stamp
		i, ok := leaf.findKey(key)
		if !ok {
			return false, nil
		}
		nl := leaf.clone()
		nl.removeLeaf(i)
		_, err = t.sc.CondPut(ctx, nodeKey(t.name, leaf.id), nl.encode(), stamp)
		if err == nil {
			return true, nil
		}
		if err == store.ErrConflict || err == store.ErrNotFound {
			continue
		}
		return false, err
	}
	return false, ErrRetriesExhausted
}

// Update replaces the value under key, reporting whether it was present.
func (t *Tree) Update(ctx env.Ctx, key, val []byte) (bool, error) {
	for attempt := 0; attempt < t.Retries; attempt++ {
		path, err := t.descend(ctx, key)
		if err != nil {
			return false, err
		}
		leaf := path[len(path)-1].n
		stamp := path[len(path)-1].stamp
		i, ok := leaf.findKey(key)
		if !ok {
			return false, nil
		}
		nl := leaf.clone()
		nl.vals[i] = val
		_, err = t.sc.CondPut(ctx, nodeKey(t.name, leaf.id), nl.encode(), stamp)
		if err == nil {
			return true, nil
		}
		if err == store.ErrConflict || err == store.ErrNotFound {
			continue
		}
		return false, err
	}
	return false, ErrRetriesExhausted
}

// Scan visits entries with lo <= key < hi in ascending order, following the
// leaf chain. fn returning false stops the scan. hi == nil means unbounded.
func (t *Tree) Scan(ctx env.Ctx, lo, hi []byte, fn func(key, val []byte) bool) error {
	path, err := t.descend(ctx, lo)
	if err != nil {
		return err
	}
	leaf := path[len(path)-1].n
	for {
		for i := range leaf.keys {
			if bytes.Compare(leaf.keys[i], lo) < 0 {
				continue
			}
			if hi != nil && bytes.Compare(leaf.keys[i], hi) >= 0 {
				return nil
			}
			if !fn(leaf.keys[i], leaf.vals[i]) {
				return nil
			}
		}
		if leaf.next == 0 {
			return nil
		}
		if hi != nil && leaf.highKey != nil && bytes.Compare(leaf.highKey, hi) >= 0 {
			return nil
		}
		leaf, _, err = t.loadNode(ctx, leaf.next, true)
		if err != nil {
			return err
		}
	}
}
