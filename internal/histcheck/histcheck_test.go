package histcheck_test

import (
	"strings"
	"testing"

	"tell/internal/core"
	"tell/internal/histcheck"
	"tell/internal/mvcc"
	"tell/internal/relational"
)

func snap(base uint64, extra ...uint64) *mvcc.Snapshot {
	s := &mvcc.Snapshot{Base: base}
	for _, tid := range extra {
		s.Add(tid)
	}
	return s
}

func row(v int64) relational.Row { return relational.Row{relational.I64(v)} }

func write(key string, base uint64, v int64) core.WriteRec {
	return core.WriteRec{Key: []byte(key), BaseVersion: base, Row: row(v)}
}

func insert(key string, v int64) core.WriteRec {
	return core.WriteRec{Key: []byte(key), Row: row(v), Insert: true}
}

// TestCleanHistory: a straightforward serial history raises nothing.
func TestCleanHistory(t *testing.T) {
	h := histcheck.New()
	h.RecBegin(1, snap(0))
	h.RecCommit(1, []core.WriteRec{insert("k", 1)})
	h.RecBegin(2, snap(1))
	h.RecRead(2, []byte("k"), 1, true)
	h.RecRead(2, []byte("k"), 1, true) // repeatable
	h.RecCommit(2, []core.WriteRec{write("k", 1, 2)})
	h.RecBegin(3, snap(2))
	h.RecRead(3, []byte("k"), 2, true)
	h.RecAbort(3)
	rep := h.Check()
	if !rep.Ok() {
		t.Fatalf("clean history flagged: %v", rep)
	}
	if rep.ReadsChecked != 3 || rep.WritesChecked != 2 {
		t.Fatalf("checked %d reads %d writes", rep.ReadsChecked, rep.WritesChecked)
	}
	begun, committed, aborted, reads := h.Stats()
	if begun != 3 || committed != 2 || aborted != 1 || reads != 3 {
		t.Fatalf("stats: %d %d %d %d", begun, committed, aborted, reads)
	}
}

// TestLostUpdateDetected: two committed transactions replace the same
// version of the same key — first-committer-wins failed.
func TestLostUpdateDetected(t *testing.T) {
	h := histcheck.New()
	h.RecBegin(2, snap(1))
	h.RecBegin(3, snap(1))
	h.RecCommit(2, []core.WriteRec{write("acct", 1, 90)})
	h.RecCommit(3, []core.WriteRec{write("acct", 1, 110)}) // same base 1
	rep := h.Check()
	if rep.ByKind(histcheck.LostUpdate) != 1 {
		t.Fatalf("want 1 lost update, got %v", rep)
	}
	a := rep.Anomalies[0]
	if len(a.Txns) != 2 || a.Txns[0] != 2 || a.Txns[1] != 3 {
		t.Fatalf("txns: %v", a.Txns)
	}
	if !strings.Contains(rep.String(), "lost-update") {
		t.Fatalf("report: %s", rep)
	}
}

// TestDistinctBasesAreFine: sequential writers replacing different
// versions are not lost updates.
func TestDistinctBasesAreFine(t *testing.T) {
	h := histcheck.New()
	h.RecCommit(2, []core.WriteRec{write("k", 1, 10)})
	h.RecCommit(3, []core.WriteRec{write("k", 2, 20)})
	h.RecCommit(5, []core.WriteRec{write("k", 3, 30)})
	if rep := h.Check(); !rep.Ok() {
		t.Fatalf("serial chain flagged: %v", rep)
	}
}

// TestAbortedReadDetected (G1a).
func TestAbortedReadDetected(t *testing.T) {
	h := histcheck.New()
	h.RecBegin(2, snap(1))
	h.RecAbort(2)
	h.RecBegin(3, snap(1, 2))
	h.RecRead(3, []byte("k"), 2, true) // read the aborted writer's version
	h.RecCommit(3, nil)
	rep := h.Check()
	if rep.ByKind(histcheck.AbortedRead) != 1 {
		t.Fatalf("want G1a, got %v", rep)
	}
}

// TestDirtyReadDetected (G1b): the writer never finished.
func TestDirtyReadDetected(t *testing.T) {
	h := histcheck.New()
	h.RecBegin(2, snap(1)) // never commits or aborts
	h.RecBegin(3, snap(1))
	h.RecRead(3, []byte("k"), 2, true)
	h.RecCommit(3, nil)
	rep := h.Check()
	if rep.ByKind(histcheck.DirtyRead) != 1 {
		t.Fatalf("want G1b, got %v", rep)
	}
}

// TestSnapshotViolationDetected: a read resolved to a committed version
// outside the reader's snapshot.
func TestSnapshotViolationDetected(t *testing.T) {
	h := histcheck.New()
	h.RecBegin(5, snap(3)) // snapshot = {1,2,3}
	h.RecBegin(4, snap(3))
	h.RecCommit(4, []core.WriteRec{write("k", 3, 9)})
	h.RecRead(5, []byte("k"), 4, true) // 4 ∉ snap(3)
	h.RecCommit(5, nil)
	rep := h.Check()
	if rep.ByKind(histcheck.SnapshotViolation) != 1 {
		t.Fatalf("want snapshot violation, got %v", rep)
	}
	// The same read is legal when the snapshot includes 4 via the bitset.
	h2 := histcheck.New()
	h2.RecBegin(5, snap(3, 4))
	h2.RecBegin(4, snap(3))
	h2.RecCommit(4, []core.WriteRec{write("k", 3, 9)})
	h2.RecRead(5, []byte("k"), 4, true)
	h2.RecCommit(5, nil)
	if rep := h2.Check(); !rep.Ok() {
		t.Fatalf("bitset member flagged: %v", rep)
	}
}

// TestNonRepeatableReadDetected: one transaction saw two versions.
func TestNonRepeatableReadDetected(t *testing.T) {
	h := histcheck.New()
	h.RecBegin(3, snap(2))
	h.RecRead(3, []byte("k"), 1, true)
	h.RecRead(3, []byte("k"), 2, true)
	h.RecCommit(3, nil)
	rep := h.Check()
	if rep.ByKind(histcheck.NonRepeatableRead) != 1 {
		t.Fatalf("want non-repeatable read, got %v", rep)
	}
}

// TestDuplicateInsertDetected.
func TestDuplicateInsertDetected(t *testing.T) {
	h := histcheck.New()
	h.RecCommit(2, []core.WriteRec{insert("k", 1)})
	h.RecCommit(3, []core.WriteRec{insert("k", 2)})
	rep := h.Check()
	if rep.ByKind(histcheck.DuplicateInsert) != 1 {
		t.Fatalf("want duplicate insert, got %v", rep)
	}
}

// TestCommittedState: the unreplaced committed write wins per key, whatever
// its tid (a forked chain falls back to the highest tid); deletes remove;
// uncommitted and aborted writes never surface.
func TestCommittedState(t *testing.T) {
	h := histcheck.New()
	h.RecCommit(2, []core.WriteRec{insert("a", 10), insert("b", 20)})
	h.RecCommit(4, []core.WriteRec{write("a", 2, 11)})
	h.RecCommit(3, []core.WriteRec{write("a", 2, 99)})                            // lower tid: loses to 4
	h.RecCommit(5, []core.WriteRec{{Key: []byte("b"), BaseVersion: 2, Row: nil}}) // delete b
	h.RecBegin(6, snap(5))
	h.RecAbort(6)
	// Two commit managers with disjoint tid ranges: tid 7 commits after
	// tid 300 and replaces its version.
	h.RecCommit(300, []core.WriteRec{insert("c", 30)})
	h.RecCommit(7, []core.WriteRec{write("c", 300, 31)})
	state := h.CommittedState()
	if len(state) != 2 {
		t.Fatalf("state: %v", state)
	}
	if got := state["c"][0].I; got != 31 {
		t.Fatalf("c = %d, want 31 (commit order, not tid order)", got)
	}
	if got := state["a"][0].I; got != 11 {
		t.Fatalf("a = %d, want 11", got)
	}
	if _, ok := state["b"]; ok {
		t.Fatal("deleted key resurfaced")
	}
}
