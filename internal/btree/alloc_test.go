// Allocation guard for node decoding. The race detector instruments
// allocations, so this runs only in regular builds (make bench-smoke
// exercises it in CI).

//go:build !race

package btree

import (
	"bytes"
	"fmt"
	"testing"
)

func leaf64() *node {
	n := &node{id: 7, next: 8, highKey: []byte("key-9999")}
	for i := 0; i < 64; i++ {
		n.keys = append(n.keys, []byte(fmt.Sprintf("key-%04d", i)))
		n.vals = append(n.vals, []byte(fmt.Sprintf("rid-%04d", i)))
	}
	return n
}

// TestDecodeNodeAllocs pins decodeNode at four allocations for a leaf of
// any size — the node, its private copy of the raw bytes, and the key and
// value slice headers — and checks what makes sharing that copy safe: the
// node does not alias the caller's buffer, and appending to a key or value
// it handed out cannot reach the neighbouring entry.
func TestDecodeNodeAllocs(t *testing.T) {
	raw := leaf64().encode()
	if n := testing.AllocsPerRun(100, func() {
		if _, err := decodeNode(7, raw); err != nil {
			t.Fatal(err)
		}
	}); n > 4 {
		t.Fatalf("decodeNode of a 64-entry leaf allocates %.0f times, want <= 4", n)
	}

	n, err := decodeNode(7, raw)
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		raw[i] = 0xff // the transport recycles its buffer
	}
	_ = append(n.keys[3], "-overrun"...)
	_ = append(n.vals[3], "-overrun"...)
	_ = append(n.highKey, "-overrun"...)
	if want := leaf64().encode(); !bytes.Equal(n.encode(), want) {
		t.Fatal("decoded node changed after its input was scribbled over and its entries appended to")
	}
}

func BenchmarkDecodeNodeLeaf64(b *testing.B) {
	raw := leaf64().encode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeNode(7, raw); err != nil {
			b.Fatal(err)
		}
	}
}
