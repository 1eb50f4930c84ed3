//go:build telldebug

package sanitize

import (
	"strings"
	"testing"
)

// TestInversionDetected provokes the textbook A→B / B→A cycle across two
// goroutine turns and checks the sanitizer reports it exactly once.
func TestInversionDetected(t *testing.T) {
	Reset()
	var a, b Mutex
	a.SetName("test.A")
	b.SetName("test.B")

	a.Lock()
	b.Lock()
	b.Unlock()
	a.Unlock()

	// Opposite order, other goroutine: no actual deadlock (sequential),
	// but the class-order cycle is now a fact of the run.
	done := make(chan struct{})
	go func() {
		defer close(done)
		b.Lock()
		a.Lock()
		a.Unlock()
		b.Unlock()
	}()
	<-done

	invs := Inversions()
	if len(invs) != 1 {
		t.Fatalf("got %d inversions, want 1: %+v", len(invs), invs)
	}
	inv := invs[0]
	if inv.Held != "test.B" || inv.Taking != "test.A" {
		t.Fatalf("inversion edge = %s→%s, want test.B→test.A", inv.Held, inv.Taking)
	}
	if inv.Stack == "" || inv.PriorStack == "" {
		t.Fatalf("inversion must carry both stacks")
	}

	// The same pair again must not double-report.
	b.Lock()
	a.Lock()
	a.Unlock()
	b.Unlock()
	if got := len(Inversions()); got != 1 {
		t.Fatalf("pair reported %d times, want deduplicated to 1", got)
	}
}

// TestNoInversionOnConsistentOrder takes two locks in the same order from
// two goroutines: a consistent hierarchy must stay silent.
func TestNoInversionOnConsistentOrder(t *testing.T) {
	Reset()
	var a, b Mutex
	a.SetName("test.C")
	b.SetName("test.D")
	for i := 0; i < 2; i++ {
		done := make(chan struct{})
		go func() {
			defer close(done)
			a.Lock()
			b.Lock()
			b.Unlock()
			a.Unlock()
		}()
		<-done
	}
	if invs := Inversions(); len(invs) != 0 {
		t.Fatalf("consistent order reported inversions: %+v", invs)
	}
}

// TestRWMutexInversion checks read acquisitions participate in ordering.
func TestRWMutexInversion(t *testing.T) {
	Reset()
	var a Mutex
	var b RWMutex
	a.SetName("test.E")
	b.SetName("test.F")

	a.Lock()
	b.RLock()
	b.RUnlock()
	a.Unlock()

	done := make(chan struct{})
	go func() {
		defer close(done)
		b.RLock()
		a.Lock()
		a.Unlock()
		b.RUnlock()
	}()
	<-done

	if invs := Inversions(); len(invs) != 1 {
		t.Fatalf("got %d inversions, want 1: %+v", len(invs), invs)
	}
}

func TestRecursiveLockPanics(t *testing.T) {
	Reset()
	var m Mutex
	m.SetName("test.recursive")
	m.Lock()
	defer m.Unlock()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("recursive Lock did not panic")
		}
		if !strings.Contains(r.(string), "recursively locking") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	m.Lock()
}

// TestUnnamedUntracked: locks without SetName never enter the registry.
func TestUnnamedUntracked(t *testing.T) {
	Reset()
	var a, b Mutex // unnamed
	a.Lock()
	b.Lock()
	b.Unlock()
	a.Unlock()
	b.Lock()
	a.Lock()
	a.Unlock()
	b.Unlock()
	if invs := Inversions(); len(invs) != 0 {
		t.Fatalf("unnamed locks were tracked: %+v", invs)
	}
}
