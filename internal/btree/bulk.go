package btree

import (
	"bytes"
	"fmt"
)

// Sink installs a prebuilt cell into the store, bypassing the RPC path
// (store.Cluster.BulkLoad). CounterSink initializes a counter cell.
type (
	Sink        func(key, val []byte) error
	CounterSink func(key []byte, v int64) error
)

// BulkBuild constructs a complete tree from n sorted unique entries, the
// i-th of which is at(i), and writes it through the sinks. It exists for
// benchmark population: building the TPC-C indexes through the insert path
// would dominate experiment set-up time. The resulting structure is
// identical to what repeated Inserts produce (verified by tests) and fully
// supports concurrent operations afterwards.
//
// Nodes are written as soon as they are complete, so only the ids and
// lowest keys of one level are held at a time. The slices at returns must
// stay valid until BulkBuild returns; they are not copied.
func BulkBuild(name string, n int, at func(i int) (key, val []byte), maxKeys int, sink Sink, ctrSink CounterSink) error {
	if maxKeys < 4 {
		maxKeys = 4
	}
	// Target fill: 3/4 of max so post-load inserts do not split at once.
	fill := maxKeys * 3 / 4
	if fill < 2 {
		fill = 2
	}

	// The leaf level. Nodes take ids 1, 2, ... level by level in key
	// order, so the nodes of a level have consecutive ids from first on, a
	// node's right sibling is the next id and its high key is the lowest
	// key under that sibling. lows[i] is the lowest leaf key under the
	// level's i-th node: the separator and high-key boundary when building
	// the level above.
	nextID, first := uint64(1), uint64(1)
	var lows [][]byte
	lf := &node{}
	var prev []byte
	for off := 0; off == 0 || off < n; off += fill {
		end := min(off+fill, n)
		lf.id, lf.keys, lf.vals = nextID, lf.keys[:0], lf.vals[:0]
		for i := off; i < end; i++ {
			k, v := at(i)
			if i > 0 && bytes.Compare(prev, k) >= 0 {
				return fmt.Errorf("btree: bulk entries not sorted/unique at %d", i)
			}
			prev = k
			lf.keys = append(lf.keys, k)
			lf.vals = append(lf.vals, v)
		}
		lf.next, lf.highKey = 0, nil
		if end < n {
			lf.next = nextID + 1
			lf.highKey, _ = at(end)
		}
		var low []byte
		if len(lf.keys) > 0 {
			low = lf.keys[0]
		}
		lows = append(lows, low)
		nextID++
		if err := sink(nodeKey(name, lf.id), lf.encode()); err != nil {
			return err
		}
	}

	// Inner levels bottom-up until a single root remains.
	height := 0
	for len(lows) > 1 {
		height++
		upFirst := nextID
		var upLows [][]byte
		for off := 0; off < len(lows); off += fill + 1 {
			end := min(off+fill+1, len(lows))
			nd := &node{id: nextID, level: height, children: []uint64{first + uint64(off)}}
			for i := off + 1; i < end; i++ {
				nd.keys = append(nd.keys, lows[i])
				nd.children = append(nd.children, first+uint64(i))
			}
			if end < len(lows) {
				nd.next = nextID + 1
				nd.highKey = lows[end]
			}
			upLows = append(upLows, lows[off])
			nextID++
			if err := sink(nodeKey(name, nd.id), nd.encode()); err != nil {
				return err
			}
		}
		first, lows = upFirst, upLows
	}
	if err := sink(rootKey(name), rootPtr{rootID: first, height: height}.encode()); err != nil {
		return err
	}
	return ctrSink(ctrKey(name), int64(nextID-1))
}
