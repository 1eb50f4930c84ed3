package durable

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"

	"tell/internal/env"
	"tell/internal/testutil"
	"tell/internal/wire"
)

// oracleEncodeChunk is the slice-based chunk encoder WriteCheckpoint used
// before it streamed, kept verbatim as the byte-identity oracle.
func oracleEncodeChunk(cells []wire.Mutation) []byte {
	w := wire.NewWriter(64 * len(cells))
	w.Uvarint(uint64(len(cells)))
	for i := range cells {
		appendMutation(w, &cells[i])
	}
	p := w.Bytes()
	out := make([]byte, 0, len(p)+5)
	out = append(out, ckptMagic)
	var crc [4]byte
	putU32(crc[:], crc32.ChecksumIEEE(p))
	out = append(out, crc[:]...)
	return append(out, p...)
}

// oracleChunks cuts cells into chunks by the old materialise-then-chunk rule
// and returns name → bytes.
func oracleChunks(ns string, seq uint64, cells []wire.Mutation, chunkBytes int) map[string][]byte {
	out := make(map[string][]byte)
	start, bytes := 0, 0
	flush := func(end int) {
		if end == start {
			return
		}
		out[chunkName(ns, seq, len(out))] = oracleEncodeChunk(cells[start:end])
		start, bytes = end, 0
	}
	for i := range cells {
		bytes += 16 + len(cells[i].Key) + len(cells[i].Val)
		if bytes >= chunkBytes {
			flush(i + 1)
		}
	}
	flush(len(cells))
	return out
}

// TestCheckpointBytesMatchSliceEncoder pins the streaming writer to the
// format it replaced: same object names, same bytes, same manifest counts,
// for every chunking edge.
func TestCheckpointBytesMatchSliceEncoder(t *testing.T) {
	var mixed []wire.Mutation
	for i := 0; i < 300; i++ {
		key := []byte(fmt.Sprintf("key-%05d", i))
		switch i % 4 {
		case 0:
			mixed = append(mixed, wire.Mutation{Key: key, Deleted: true, Stamp: uint64(i + 1)})
		case 1:
			mixed = append(mixed, wire.Mutation{Key: key, Counter: true, CtrVal: int64(i) - 150, Stamp: uint64(1000 - i)})
		case 2:
			mixed = append(mixed, wire.Mutation{Key: key, Stamp: 1 << 40}) // empty value
		default:
			mixed = append(mixed, wire.Mutation{Key: key, Val: bytes.Repeat([]byte{byte(i)}, i), Stamp: uint64(i)})
		}
	}
	big := wire.Mutation{Key: []byte("big"), Val: bytes.Repeat([]byte("x"), 5000), Stamp: 9}
	cases := []struct {
		name       string
		cells      []wire.Mutation
		chunkBytes int
	}{
		{"empty", nil, 0},
		{"one-small", []wire.Mutation{mut("a", "1", 1)}, 0},
		{"one-cell-larger-than-chunk", []wire.Mutation{big}, 64},
		{"large-cell-mid-chunk", []wire.Mutation{mut("a", "1", 1), big, mut("c", "3", 3)}, 64},
		{"every-cell-crosses", mixed, 1},
		{"mixed-small-chunks", mixed, 200},
		{"mixed-default", mixed, 0},
		{"ends-on-boundary", []wire.Mutation{mut("a", "1234", 1), mut("b", "1234", 2)}, 21},
		{"two-byte-count", mixed[:200], 1 << 20},
	}
	runSim(t, testutil.Seed(t, 108), func(ctx env.Ctx) {
		for _, tc := range cases {
			be := NewMem()
			man := &Manifest{Seq: 3}
			if err := WriteCheckpoint(ctx, be, "sn0", man, SliceSource(tc.cells), tc.chunkBytes); err != nil {
				t.Errorf("%s: write: %v", tc.name, err)
				continue
			}
			chunkBytes := tc.chunkBytes
			if chunkBytes <= 0 {
				chunkBytes = 64 << 10
			}
			want := oracleChunks("sn0", 3, tc.cells, chunkBytes)
			var wantStamp uint64
			for _, c := range tc.cells {
				wantStamp = max(wantStamp, c.Stamp)
			}
			if man.Chunks != uint64(len(want)) || man.Cells != uint64(len(tc.cells)) || man.Stamp != wantStamp {
				t.Errorf("%s: manifest %+v, want %d chunks %d cells stamp %d",
					tc.name, man, len(want), len(tc.cells), wantStamp)
			}
			names, _ := be.List(ctx, "sn0/ckpt/g")
			if len(names) != len(want) {
				t.Errorf("%s: %d chunk objects, want %d", tc.name, len(names), len(want))
			}
			for _, name := range names {
				got, _ := be.Get(ctx, name)
				if !bytes.Equal(got, want[name]) {
					t.Errorf("%s: object %s differs from the slice encoder's (%d vs %d bytes)",
						tc.name, name, len(got), len(want[name]))
				}
			}
		}
	})
}

// TestCheckpointEmptyKeyDoesNotRestart: the cursor after a chunk that ends on
// the empty key is empty but not nil, so the walk resumes instead of looping.
func TestCheckpointEmptyKeyDoesNotRestart(t *testing.T) {
	cells := []wire.Mutation{{Key: []byte{}, Val: []byte("v"), Stamp: 1}, mut("a", "1", 2)}
	runSim(t, testutil.Seed(t, 109), func(ctx env.Ctx) {
		man := &Manifest{Seq: 1}
		if err := WriteCheckpoint(ctx, NewMem(), "sn0", man, SliceSource(cells), 1); err != nil {
			t.Errorf("write: %v", err)
		}
		if man.Chunks != 2 || man.Cells != 2 {
			t.Errorf("manifest %+v, want 2 chunks of 1 cell", man)
		}
	})
}

// TestCheckpointSourceErrorKeepsPreviousGeneration: a source that fails
// part-way abandons its generation before the manifest, so the previous
// checkpoint still loads whole and none of its chunks was collected.
func TestCheckpointSourceErrorKeepsPreviousGeneration(t *testing.T) {
	cells := []wire.Mutation{mut("a", "1", 1), mut("b", "2", 2), mut("c", "3", 3)}
	runSim(t, testutil.Seed(t, 110), func(ctx env.Ctx) {
		be := NewMem()
		if err := WriteCheckpoint(ctx, be, "sn0", &Manifest{Seq: 1}, SliceSource(cells), 1); err != nil {
			t.Errorf("write: %v", err)
		}
		gone := errors.New("cells replaced")
		calls := 0
		failing := func(after []byte, emit func(wire.Mutation) bool) error {
			if calls++; calls > 1 {
				return gone
			}
			return SliceSource(cells)(after, emit)
		}
		if err := WriteCheckpoint(ctx, be, "sn0", &Manifest{Seq: 2}, failing, 1); err != gone {
			t.Errorf("write with a failing source: %v, want %v", err, gone)
		}
		loaded := 0
		man, err := LoadCheckpoint(ctx, be, "sn0", func(*wire.Mutation) { loaded++ })
		if err != nil || man == nil || man.Seq != 1 || loaded != len(cells) {
			t.Errorf("after the failed write: manifest %+v, %d cells, err=%v; want generation 1 whole", man, loaded, err)
		}
	})
}
