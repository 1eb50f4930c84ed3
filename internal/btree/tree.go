package btree

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

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

	// MaxKeys is the fanout bound per node: Fanout, or smaller in tests
	// that want splits from few keys.
	MaxKeys int
	// CacheInner toggles the inner-node cache (§5.3.1).
	CacheInner bool

	mu    sanitize.Mutex
	cache map[uint64]*node
	root  *rootPtr
	// Node ids come from ranges of idRangeSize reserved on the tree's
	// counter: [idNext, idEnd] is the range in use (empty when idNext >
	// idEnd), spare the high end of one reserved in the background (0:
	// none), refilling whether that reservation is in flight.
	idNext, idEnd, spare uint64
	refilling            bool
	// posting holds the right-node ids whose separator post is running.
	posting   map[uint64]bool
	reads     uint64
	cacheHits uint64
}

// Fanout is the node capacity of every tree the engine builds: New's
// MaxKeys and the bulk loader's node size.
const Fanout = 64

// retries bounds optimistic retry loops.
const retries = 64

// idRangeSize is how many node ids one counter bump reserves.
const idRangeSize = 64

// New returns a handle to the tree stored under name. The tree must have
// been created once with Create (or BulkBuild).
func New(name string, sc *store.Client) *Tree {
	t := &Tree{
		name:       name,
		sc:         sc,
		MaxKeys:    Fanout,
		CacheInner: true,
		cache:      make(map[uint64]*node),
		idNext:     1,
		posting:    make(map[uint64]bool),
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

// allocID reserves a fresh node id. A spare range is reserved in the
// background (refillIDs) on the handle's first ReadLeaf and whenever the
// range in use is half spent, so a split waits on the counter only when
// both are empty.
func (t *Tree) allocID(ctx env.Ctx) (uint64, error) {
	t.mu.Lock()
	if t.idNext > t.idEnd && t.spare != 0 {
		t.idNext, t.idEnd, t.spare = t.spare-idRangeSize+1, t.spare, 0
	}
	if t.idNext <= t.idEnd {
		id := t.idNext
		t.idNext++
		half := t.idEnd-id < idRangeSize/2
		t.mu.Unlock()
		if half {
			t.refillIDs(ctx)
		}
		return id, nil
	}
	t.mu.Unlock()
	hi, err := t.sc.CounterAdd(ctx, ctrKey(t.name), idRangeSize)
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	t.idNext, t.idEnd = uint64(hi)-idRangeSize+2, uint64(hi)
	t.mu.Unlock()
	return uint64(hi) - idRangeSize + 1, nil
}

// refillIDs reserves a spare id range in a detached activity, unless one is
// reserved or on its way. After a failed reservation the next trigger tries
// again; a split that finds both ranges empty reserves one itself.
func (t *Tree) refillIDs(ctx env.Ctx) {
	t.mu.Lock()
	if t.spare != 0 || t.refilling {
		t.mu.Unlock()
		return
	}
	t.refilling = true
	t.mu.Unlock()
	ctx.Go("btree-ids", func(ctx env.Ctx) {
		hi, err := t.sc.CounterAdd(ctx, ctrKey(t.name), idRangeSize)
		t.mu.Lock()
		t.refilling = false
		if err == nil {
			t.spare = uint64(hi)
		}
		t.mu.Unlock()
	})
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
	n *node
	// stamp is the node's LL stamp when it was read from the store, and 0
	// when it came from the inner-node cache (stored nodes never carry 0).
	stamp uint64
}

// descend walks from the root to the leaf covering key, applying B-link
// right-moves at every level, and returns the visited path (root first).
// If moves happened below the root, the cached parent is refreshed per
// §5.3.1's consistency rule. A move right from a child of a parent read
// from the store crosses a split whose separator that parent lacks: the
// walk starts the split's separator post (postSeparator) and goes on, so a
// post lost to a crash or an error costs longer walks until the next
// walker that crosses finishes it.
func (t *Tree) descend(ctx env.Ctx, key []byte) ([]pathEntry, error) {
	for attempt := 0; attempt < retries; attempt++ {
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
	reloaded := false
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
		// A right sibling at the top level means the root has grown since
		// the pointer was cached (or is growing now). Reload the pointer
		// once and descend from the new root, if there is one, instead of
		// walking the old root's whole level on every descent.
		if len(path) == 0 && !reloaded && !n.covers(key) && n.next != 0 {
			reloaded = true
			if rp2, err := t.loadRoot(ctx, true); err == nil && rp2.rootID != id {
				id, level = rp2.rootID, rp2.height
				continue
			}
		}
		// B-link move right while the key is beyond this node's range.
		moved := 0
		for !n.covers(key) && n.next != 0 {
			if len(path) > 0 && path[len(path)-1].stamp != 0 {
				t.postSeparator(ctx, path, n.level, n.highKey, n.id, n.next, postRepair)
			}
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

// Leaf is the leaf covering a key as one descent found it: the path from
// the root and the leaf's LL stamp. InsertMany and DeleteMany take it to
// start their first round there instead of descending again. The hint can
// only save a round trip, never change an outcome: it is used only for keys
// in [the key it was read for, the leaf's high key), which the leaf covers
// for as long as its stamp is unchanged (leaves split to the right and are
// never merged); a leaf that changed since fails its conditional put, so
// the round descends afresh; and a round on the hint that has nothing to
// put, whose outcome no conditional put would check, is run again from a
// fresh descent.
type Leaf struct {
	key  []byte
	path []pathEntry
}

// ReadLeaf descends to the leaf covering key. Until the handle has taken
// its first node-id range into use, it also makes sure one is reserved or
// on its way (refillIDs), ahead of the handle's first split.
func (t *Tree) ReadLeaf(ctx env.Ctx, key []byte) (Leaf, error) {
	t.mu.Lock()
	fresh := t.idEnd == 0
	t.mu.Unlock()
	if fresh {
		t.refillIDs(ctx)
	}
	path, err := t.descend(ctx, key)
	return Leaf{key: key, path: path}, err
}

// node returns the leaf itself.
func (l *Leaf) node() *node { return l.path[len(l.path)-1].n }

// covers reports whether key lies in the part of the leaf's range the hint
// vouches for.
func (l *Leaf) covers(key []byte) bool {
	return bytes.Compare(key, l.key) >= 0 && l.node().covers(key)
}

// Get returns the value the leaf holds under key.
func (l *Leaf) Get(key []byte) ([]byte, bool) {
	n := l.node()
	if i, ok := n.findKey(key); ok {
		return n.vals[i], true
	}
	return nil, false
}

// Lookup returns the value stored under key.
func (t *Tree) Lookup(ctx env.Ctx, key []byte) ([]byte, bool, error) {
	leaf, err := t.ReadLeaf(ctx, key)
	if err != nil {
		return nil, false, err
	}
	val, ok := leaf.Get(key)
	return val, ok, nil
}

// Insert adds (key, val) if key is absent. It reports whether the key
// already existed (in which case nothing changes).
func (t *Tree) Insert(ctx env.Ctx, key, val []byte) (existed bool, err error) {
	ex, err := t.InsertMany(ctx, nil, [][]byte{key}, [][]byte{val})
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
// A non-nil from is a leaf read earlier (see Leaf): the first round starts
// from it when it covers the lowest key.
func (t *Tree) InsertMany(ctx env.Ctx, from *Leaf, keys, vals [][]byte) (existed []bool, err error) {
	existed = make([]bool, len(keys))
	if err := t.byLeaf(ctx, from, keys, func(pending []int, path []pathEntry) (int, bool, bool, error) {
		return t.insertRound(ctx, keys, vals, pending, path, existed)
	}); err != nil {
		return nil, err
	}
	return existed, nil
}

// byLeaf hands round the indexes of keys in key order, with the path to the
// leaf covering the first of them, until every key is settled. Each call
// settles the pending keys that share that leaf and reports how many and
// whether it wrote the leaf, or reports that its leaf write raced with
// another writer; a race retries the same keys, up to retries times in a
// row. The first round's path is from's when from covers the lowest key;
// every other round descends. A round on from's path that wrote nothing
// settled its keys from the leaf as it was read, which no conditional put
// checked: the leaf may have changed since, so those keys go again from a
// fresh descent.
func (t *Tree) byLeaf(ctx env.Ctx, from *Leaf, keys [][]byte, round func(pending []int, path []pathEntry) (n int, wrote, ok bool, err error)) error {
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return bytes.Compare(keys[a], keys[b]) })
	for p, raced := 0, 0; p < len(order); {
		hinted := from != nil && from.covers(keys[order[p]])
		var path []pathEntry
		if hinted {
			path = from.path
		} else {
			var err error
			if path, err = t.descend(ctx, keys[order[p]]); err != nil {
				return err
			}
		}
		from = nil
		n, wrote, ok, err := round(order[p:], path)
		switch {
		case err != nil:
			return err
		case !ok:
			if raced++; raced == retries {
				return ErrRetriesExhausted
			}
		case wrote || !hinted:
			p, raced = p+n, 0
		}
	}
	return nil
}

// insertRound installs the entries of pending (indexes into keys and vals,
// in key order) that fall into the leaf path ends at, which covers the
// first of them, and reports how many of them it settled and whether it
// wrote the leaf. ok is false when the leaf write raced with another
// writer; nothing was settled then.
func (t *Tree) insertRound(ctx env.Ctx, keys, vals [][]byte, pending []int, path []pathEntry, existed []bool) (n int, wrote, ok bool, err error) {
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
		return n, false, true, nil
	}
	if len(nl.keys) <= t.MaxKeys {
		_, err := t.sc.CondPut(ctx, nodeKey(t.name, leaf.id), nl.encode(), stamp)
		if err == store.ErrConflict || err == store.ErrNotFound {
			return 0, false, false, nil
		}
		return n, true, err == nil, err
	}
	ok, err = t.splitLeafAndInsert(ctx, path, nl, stamp)
	return n, true, ok, err
}

// splitLeafAndInsert installs nl (already containing the new keys and
// exceeding MaxKeys) as a split pair and returns as soon as both halves are
// in the store; the separator reaches the parent in the background
// (postSeparator). Returns done=false to signal a raced conflict needing a
// fresh retry.
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
	// 3. Post the separator to the parent level off the caller's path:
	// readers already reach the right node through the B-link pointer, so
	// the separator only restores fast routing.
	t.postSeparator(ctx, path[:len(path)-1], 0, sep, left.id, rightID, postSplit)
	return true, nil
}

// Causes of a separator post, recorded with its trace instant.
const (
	postSplit  = 0 // the splitting writer
	postRepair = 1 // a walker that crossed the split's right link
)

// postSeparator installs (sep → rightID), the right half of a split of
// leftID at level, one level up (insertSeparator) in a detached activity,
// unless a post of rightID from this handle is already running. The caller
// goes on at once: until the post lands, walkers reach the right node by
// moving right from leftID. A post that fails is dropped; the next walker
// that moves right from leftID under a parent read from the store starts
// it again.
func (t *Tree) postSeparator(ctx env.Ctx, up []pathEntry, level int, sep []byte, leftID, rightID uint64, cause int64) {
	t.mu.Lock()
	if t.posting[rightID] {
		t.mu.Unlock()
		return
	}
	t.posting[rightID] = true
	t.mu.Unlock()
	if sc := ctx.Trace(); sc.R.Enabled() {
		sc.R.Instant(sc.Span, ctx.Node().Name(), "btree-post-separator", int64(rightID), cause)
	}
	ctx.Go("btree-post", func(ctx env.Ctx) {
		// A post that fails is finished by a later walker (see above).
		_ = t.insertSeparator(ctx, up, level, sep, leftID, rightID)
		t.mu.Lock()
		delete(t.posting, rightID)
		t.mu.Unlock()
	})
}

// insertSeparator inserts (sep → rightID), the right half of a split of
// leftID at level, into the node one level up that covers sep. up is the
// path above the split node, root first: the search starts at its last
// entry, and an empty up means the split node was the root when it was
// read.
func (t *Tree) insertSeparator(ctx env.Ctx, up []pathEntry, level int, sep []byte, leftID, rightID uint64) error {
	if len(up) == 0 {
		return t.growRoot(ctx, level, sep, leftID, rightID)
	}
	parentID := up[len(up)-1].n.id
	for attempt := 0; attempt < retries; attempt++ {
		parent, stamp, err := t.loadNodeFresh(ctx, parentID)
		if err == store.ErrNotFound {
			// Parent vanished (e.g. superseded root): re-descend to
			// locate the current parent at this level.
			if parentID, err = t.descendToLevel(ctx, sep, level+1); err != nil {
				return err
			}
			continue
		}
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
			t.cacheInner(parent)
			return nil // another post already installed it
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
			t.cacheInner(np)
			return nil
		}
		// Parent overflows: split it and post one level further up.
		if err := t.splitInner(ctx, up[:len(up)-1], np, stamp); err != nil {
			if err == errRaced {
				continue
			}
			return err
		}
		return nil
	}
	return ErrRetriesExhausted
}

// cacheInner puts an inner node as just read or written into the cache.
func (t *Tree) cacheInner(n *node) {
	if t.CacheInner {
		t.mu.Lock()
		t.cache[n.id] = n
		t.mu.Unlock()
	}
}

// errRaced signals an internal optimistic conflict to the caller's loop.
var errRaced = errors.New("btree: raced")

// splitInner installs the overflowing inner node np as a split pair and
// posts the promoted separator one level up; up is the path above np.
func (t *Tree) splitInner(ctx env.Ctx, up []pathEntry, np *node, stamp uint64) error {
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
	t.cacheInner(left)
	if sc := ctx.Trace(); sc.R.Enabled() {
		sc.R.Instant(sc.Span, ctx.Node().Name(), "btree-split-inner",
			int64(left.id), int64(rightID))
	}
	return t.insertSeparator(ctx, up, np.level, promoted, left.id, rightID)
}

// growRoot installs a new root above leftID, a split node at level that
// was the root, with rightID its right half. When the root has moved on
// since, the separator goes into the level above instead.
func (t *Tree) growRoot(ctx env.Ctx, level int, sep []byte, leftID, rightID uint64) error {
	for attempt := 0; attempt < retries; attempt++ {
		raw, stamp, err := t.sc.Get(ctx, rootKey(t.name))
		if err != nil {
			return err
		}
		rp, err := decodeRootPtr(raw)
		if err != nil {
			return err
		}
		if rp.rootID != leftID {
			parentID, err := t.descendToLevel(ctx, sep, level+1)
			if err != nil {
				return err
			}
			up := []pathEntry{{n: &node{id: parentID, level: level + 1}}}
			return t.insertSeparator(ctx, up, level, sep, leftID, rightID)
		}
		newRootID, err := t.allocID(ctx)
		if err != nil {
			return err
		}
		newRoot := &node{
			id:       newRootID,
			level:    level + 1,
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

// descendToLevel finds the id of the node at the given level covering key,
// bypassing the cache. A root below that level with a right sibling is a
// root growth half done: a writer split the root and has not installed the
// new root above it, and may never. The walk finishes that growth itself,
// as any writer may, and looks again.
func (t *Tree) descendToLevel(ctx env.Ctx, key []byte, level int) (uint64, error) {
	rp, err := t.loadRoot(ctx, true)
	for attempt := 0; err == nil && rp.height < level; attempt++ {
		var root *node
		if root, _, err = t.loadNodeFresh(ctx, rp.rootID); err != nil {
			return 0, err
		}
		if root.next == 0 || attempt == retries {
			return 0, fmt.Errorf("btree: level %d not found", level)
		}
		if err = t.growRoot(ctx, root.level, root.highKey, root.id, root.next); err == nil {
			rp, err = t.loadRoot(ctx, true)
		}
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

// DeleteMany removes every key present and reports per key whether it was;
// a key given twice is reported removed once. Keys that share a leaf go
// together, as in InsertMany: each round descends to the leaf covering the
// lowest pending key (the first round starts from from when it can), drops
// every pending key that leaf covers and installs it with one conditional
// put; a conflict retries only that round's keys. Structural shrinking is
// lazy: emptied leaves stay linked (readers skip them via B-link pointers),
// matching the paper's lazy index GC stance.
func (t *Tree) DeleteMany(ctx env.Ctx, from *Leaf, keys [][]byte) (removed []bool, err error) {
	removed = make([]bool, len(keys))
	if err := t.byLeaf(ctx, from, keys, func(pending []int, path []pathEntry) (int, bool, bool, error) {
		return t.deleteRound(ctx, keys, pending, path, removed)
	}); err != nil {
		return nil, err
	}
	return removed, nil
}

// deleteRound removes the keys of pending (indexes into keys, in key order)
// that fall into the leaf path ends at, which covers the first of them, and
// reports how many of them it settled and whether it wrote the leaf. ok is
// false when the leaf write raced with another writer; nothing was settled
// then.
func (t *Tree) deleteRound(ctx env.Ctx, keys [][]byte, pending []int, path []pathEntry, removed []bool) (n int, wrote, ok bool, err error) {
	leaf := path[len(path)-1].n
	stamp := path[len(path)-1].stamp
	nl := leaf
	for ; n < len(pending) && leaf.covers(keys[pending[n]]); n++ {
		e := pending[n]
		i, found := nl.findKey(keys[e])
		removed[e] = found
		if !found {
			continue
		}
		if nl == leaf {
			nl = leaf.clone()
		}
		nl.removeLeaf(i)
	}
	if nl == leaf {
		return n, false, true, nil
	}
	_, err = t.sc.CondPut(ctx, nodeKey(t.name, leaf.id), nl.encode(), stamp)
	if err == store.ErrConflict || err == store.ErrNotFound {
		return 0, false, false, nil
	}
	return n, true, err == nil, err
}

// Update replaces the value under key, reporting whether it was present.
func (t *Tree) Update(ctx env.Ctx, key, val []byte) (bool, error) {
	for attempt := 0; attempt < retries; attempt++ {
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

// ScanFrom is Scan from a leaf already read: it visits the entries from
// the key from was read for up to hi.
func (t *Tree) ScanFrom(ctx env.Ctx, from *Leaf, hi []byte, fn func(key, val []byte) bool) error {
	lo, leaf := from.key, from.node()
	var err error
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
