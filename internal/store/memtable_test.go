package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMemtableSetGetDelete(t *testing.T) {
	m := newMemtable(1)
	if _, ok := m.get([]byte("a")); ok {
		t.Fatal("empty table returned a value")
	}
	m.set([]byte("a"), cell{val: []byte("1"), stamp: 1})
	m.set([]byte("b"), cell{val: []byte("2"), stamp: 2})
	if c, ok := m.get([]byte("a")); !ok || string(c.val) != "1" {
		t.Fatalf("get a = %v %v", c, ok)
	}
	// Overwrite.
	m.set([]byte("a"), cell{val: []byte("1'"), stamp: 3})
	if c, _ := m.get([]byte("a")); string(c.val) != "1'" || c.stamp != 3 {
		t.Fatalf("overwrite failed: %+v", c)
	}
	if m.len() != 2 {
		t.Fatalf("len = %d", m.len())
	}
	if !m.delete([]byte("a")) {
		t.Fatal("delete a failed")
	}
	if m.delete([]byte("a")) {
		t.Fatal("double delete succeeded")
	}
	if _, ok := m.get([]byte("a")); ok {
		t.Fatal("deleted key still present")
	}
	if m.len() != 1 {
		t.Fatalf("len = %d", m.len())
	}
}

func TestMemtableScanForward(t *testing.T) {
	m := newMemtable(1)
	for _, k := range []string{"d", "a", "c", "b", "e"} {
		m.set([]byte(k), cell{val: []byte(k)})
	}
	var got []string
	m.scan([]byte("b"), []byte("e"), false, func(k []byte, c cell) bool {
		got = append(got, string(k))
		return true
	})
	want := []string{"b", "c", "d"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestMemtableScanReverse(t *testing.T) {
	m := newMemtable(1)
	for _, k := range []string{"a", "b", "c", "d", "e"} {
		m.set([]byte(k), cell{val: []byte(k)})
	}
	var got []string
	m.scan([]byte("b"), []byte("e"), true, func(k []byte, c cell) bool {
		got = append(got, string(k))
		return true
	})
	want := []string{"d", "c", "b"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	// Unbounded reverse scan covers everything, descending.
	got = nil
	m.scan(nil, nil, true, func(k []byte, c cell) bool {
		got = append(got, string(k))
		return true
	})
	if fmt.Sprint(got) != fmt.Sprint([]string{"e", "d", "c", "b", "a"}) {
		t.Fatalf("unbounded reverse = %v", got)
	}
}

func TestMemtableScanEarlyStop(t *testing.T) {
	m := newMemtable(1)
	for i := 0; i < 10; i++ {
		m.set([]byte{byte('a' + i)}, cell{})
	}
	n := 0
	m.scan(nil, nil, false, func(k []byte, c cell) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("visited %d, want 3", n)
	}
}

func TestMemtableScanEmptyAndMissRanges(t *testing.T) {
	m := newMemtable(1)
	ran := false
	m.scan(nil, nil, false, func(k []byte, c cell) bool { ran = true; return true })
	m.scan(nil, nil, true, func(k []byte, c cell) bool { ran = true; return true })
	if ran {
		t.Fatal("scan on empty table visited something")
	}
	m.set([]byte("m"), cell{})
	m.scan([]byte("x"), []byte("z"), false, func(k []byte, c cell) bool { ran = true; return true })
	m.scan([]byte("a"), []byte("c"), true, func(k []byte, c cell) bool { ran = true; return true })
	if ran {
		t.Fatal("out-of-range scan visited something")
	}
}

func TestMemtableReverseScanAfterTailDelete(t *testing.T) {
	m := newMemtable(1)
	m.set([]byte("a"), cell{})
	m.set([]byte("b"), cell{})
	m.delete([]byte("b"))
	var got []string
	m.scan(nil, nil, true, func(k []byte, c cell) bool {
		got = append(got, string(k))
		return true
	})
	if len(got) != 1 || got[0] != "a" {
		t.Fatalf("got %v", got)
	}
	m.delete([]byte("a"))
	got = nil
	m.scan(nil, nil, true, func(k []byte, c cell) bool {
		got = append(got, string(k))
		return true
	})
	if len(got) != 0 {
		t.Fatalf("got %v from emptied table", got)
	}
}

// TestMemtablePropertyAgainstMap drives random operations against both the
// skiplist and a reference map, verifying lookups and full ordered scans.
func TestMemtablePropertyAgainstMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := newMemtable(seed)
		ref := make(map[string]uint64)
		for i := 0; i < 400; i++ {
			k := []byte(fmt.Sprintf("key%03d", rng.Intn(80)))
			switch rng.Intn(3) {
			case 0, 1:
				st := uint64(i + 1)
				m.set(k, cell{val: k, stamp: st})
				ref[string(k)] = st
			case 2:
				delOK := m.delete(k)
				_, inRef := ref[string(k)]
				if delOK != inRef {
					return false
				}
				delete(ref, string(k))
			}
		}
		// Point lookups agree.
		for k, st := range ref {
			c, ok := m.get([]byte(k))
			if !ok || c.stamp != st {
				return false
			}
		}
		if m.len() != len(ref) {
			return false
		}
		// Forward scan yields exactly the reference keys in order.
		var keys []string
		m.scan(nil, nil, false, func(k []byte, c cell) bool {
			keys = append(keys, string(k))
			return true
		})
		if len(keys) != len(ref) {
			return false
		}
		if !sort.StringsAreSorted(keys) {
			return false
		}
		// Reverse scan is the exact mirror.
		var rkeys []string
		m.scan(nil, nil, true, func(k []byte, c cell) bool {
			rkeys = append(rkeys, string(k))
			return true
		})
		if len(rkeys) != len(keys) {
			return false
		}
		for i := range keys {
			if keys[i] != rkeys[len(rkeys)-1-i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMemtableBinaryKeys(t *testing.T) {
	m := newMemtable(1)
	keys := [][]byte{{0}, {0, 0}, {0, 1}, {1}, {0xff}, {0xff, 0}}
	for i, k := range keys {
		m.set(k, cell{stamp: uint64(i + 1)})
	}
	var got [][]byte
	m.scan(nil, nil, false, func(k []byte, c cell) bool {
		got = append(got, append([]byte(nil), k...))
		return true
	})
	if len(got) != len(keys) {
		t.Fatalf("got %d keys", len(got))
	}
	for i := 1; i < len(got); i++ {
		if bytes.Compare(got[i-1], got[i]) >= 0 {
			t.Fatalf("scan out of order at %d: %v >= %v", i, got[i-1], got[i])
		}
	}
}

// TestMemtableScanAfter pins the cursor-resume step: strictly after the
// cursor, whether or not the cursor key is (still) present; nil = from the
// start; an empty non-nil cursor skips only the empty key.
func TestMemtableScanAfter(t *testing.T) {
	m := newMemtable(1)
	for _, k := range []string{"", "d", "a", "c", "b", "e"} {
		m.set([]byte(k), cell{val: []byte(k)})
	}
	collect := func(after []byte, limit int) string {
		var got []string
		m.scanAfter(after, func(k []byte, c cell) bool {
			got = append(got, string(k))
			return len(got) < limit
		})
		return fmt.Sprintf("%q", got)
	}
	for _, tc := range []struct {
		after []byte
		limit int
		want  string
	}{
		{nil, 99, `["" "a" "b" "c" "d" "e"]`},
		{[]byte{}, 99, `["a" "b" "c" "d" "e"]`},
		{[]byte("b"), 99, `["c" "d" "e"]`},
		{[]byte("bb"), 99, `["c" "d" "e"]`}, // cursor key deleted since
		{[]byte("b"), 2, `["c" "d"]`},
		{[]byte("e"), 99, `[]`},
		{[]byte("z"), 99, `[]`},
	} {
		if got := collect(tc.after, tc.limit); got != tc.want {
			t.Errorf("scanAfter(%q, limit %d) = %s, want %s", tc.after, tc.limit, got, tc.want)
		}
	}
}
