// Package sanitize provides drop-in replacements for sync.Mutex and
// sync.RWMutex that, under the telldebug build tag, record lock-acquisition
// order at runtime. The static lockorder analyzer
// (cmd/tellvet) proves ordering properties about lock *classes* it can see
// syntactically; the runtime sanitizer closes the gap for orders that only
// materialize dynamically — locks reached through interfaces, callbacks, or
// goroutine handoffs the analyzer's per-package view cannot follow.
//
// In a normal build (no telldebug tag) the types compile to plain sync
// mutexes with zero overhead: SetName is a no-op and no registry exists.
// Under -tags telldebug every named mutex participates in a global
// acquisition graph keyed by class name (the SetName string). Taking lock B
// while holding lock A records the edge A→B; if the reverse edge B→A was
// ever recorded — by any goroutine, at any earlier point in the run — the
// inversion is reported with both stacks. This is the classic happened-
// before-free lock-order discipline (as in mutex deadlock detectors such as
// Valgrind's Helgrind or Go's own runtime lock ranking): a cycle in the
// class graph means some interleaving can deadlock, even if this run did
// not.
//
// Locks that are never named are not tracked: unexported scratch mutexes
// with trivially local critical sections can opt out by simply not calling
// SetName. Every engine-layer mutex that guards cross-component state
// should be named.
package sanitize

// Inversion is one detected lock-order cycle: the goroutine acquired Taking
// while holding Held, but the opposite order Held-after-Taking was recorded
// earlier (by the goroutine whose stack is PriorStack).
type Inversion struct {
	Held       string // class name of the lock already held
	Taking     string // class name of the lock being acquired
	Stack      string // stack of the acquisition completing the cycle
	PriorStack string // stack that recorded the opposite edge
}
