//go:build telldebug

package sanitize

import (
	"fmt"
	"runtime"
	"sync"
)

// Enabled reports whether the build carries the telldebug instrumentation.
const Enabled = true

// registry is the global acquisition state. A single plain mutex guards it:
// the sanitizer is a debug build, and one short critical section per
// Lock/Unlock is an acceptable price for a data structure that must observe
// a globally consistent edge set.
var registry struct {
	mu sync.Mutex
	// held is the per-goroutine stack of named locks currently held.
	held map[uint64][]heldEntry
	// edges maps class-order edge {from, to} → the stack that first
	// recorded it. Edges are never forgotten (until Reset): an inversion is
	// a property of the run, not of a moment.
	edges map[edgeKey]string
	// seen dedups reported inversions per unordered class pair.
	seen       map[edgeKey]bool
	inversions []Inversion
}

type heldEntry struct {
	lock  interface{} // *Mutex or *RWMutex identity, for recursion checks
	class string
}

type edgeKey struct{ from, to string }

func init() {
	registry.held = make(map[uint64][]heldEntry)
	registry.edges = make(map[edgeKey]string)
	registry.seen = make(map[edgeKey]bool)
}

// gid returns the current goroutine's id, parsed from the runtime stack
// header ("goroutine N [running]: ..."). Slow, and exactly as slow as every
// other user-space goroutine-local trick; acceptable under telldebug.
func gid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	const prefix = len("goroutine ")
	id := uint64(0)
	for _, c := range buf[prefix:n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

func stack() string {
	buf := make([]byte, 8<<10)
	n := runtime.Stack(buf, false)
	return string(buf[:n])
}

// beforeAcquire runs before blocking on the underlying lock: recording the
// edge first means a run that truly deadlocks has already written the
// evidence down by the time it hangs.
func beforeAcquire(lock interface{}, class string) {
	g := gid()
	st := stack()
	registry.mu.Lock()
	held := registry.held[g]
	for i := range held {
		if held[i].lock == lock {
			registry.mu.Unlock()
			panic(fmt.Sprintf("sanitize: goroutine %d recursively locking %q\n%s", g, class, st))
		}
	}
	for i := range held {
		from := held[i].class
		fwd := edgeKey{from, class}
		rev := edgeKey{class, from}
		if prior, ok := registry.edges[rev]; ok {
			pair := fwd
			if rev.from < fwd.from {
				pair = rev
			}
			if !registry.seen[pair] {
				registry.seen[pair] = true
				registry.inversions = append(registry.inversions, Inversion{
					Held:       from,
					Taking:     class,
					Stack:      st,
					PriorStack: prior,
				})
			}
		}
		if _, ok := registry.edges[fwd]; !ok {
			registry.edges[fwd] = st
		}
	}
	registry.mu.Unlock()
}

func afterAcquire(lock interface{}, class string) {
	g := gid()
	registry.mu.Lock()
	registry.held[g] = append(registry.held[g], heldEntry{lock: lock, class: class})
	registry.mu.Unlock()
}

func beforeRelease(lock interface{}) {
	g := gid()
	registry.mu.Lock()
	defer registry.mu.Unlock()
	held := registry.held[g]
	for i := len(held) - 1; i >= 0; i-- {
		if held[i].lock != lock {
			continue
		}
		held = append(held[:i], held[i+1:]...)
		if len(held) == 0 {
			delete(registry.held, g)
		} else {
			registry.held[g] = held
		}
		return
	}
	// Unlock on a goroutine that never locked (lock handoff between
	// goroutines). Legal for sync.Mutex; the hold simply goes untracked.
}

// Mutex is an instrumented sync.Mutex. Zero value is usable; untracked
// until SetName is called (which must happen before concurrent use).
type Mutex struct {
	mu   sync.Mutex
	name string
}

// SetName assigns the lock's class for order tracking. Call once, during
// construction, before the lock is shared.
func (m *Mutex) SetName(name string) { m.name = name }

func (m *Mutex) Lock() {
	if m.name != "" {
		beforeAcquire(m, m.name)
	}
	m.mu.Lock()
	if m.name != "" {
		afterAcquire(m, m.name)
	}
}

func (m *Mutex) Unlock() {
	if m.name != "" {
		beforeRelease(m)
	}
	m.mu.Unlock()
}

func (m *Mutex) TryLock() bool {
	ok := m.mu.TryLock()
	if ok && m.name != "" {
		afterAcquire(m, m.name)
	}
	return ok
}

// RWMutex is an instrumented sync.RWMutex. Read and write acquisitions
// record the same class edges: an RLock-then-Lock cycle deadlocks exactly
// like a Lock-then-Lock one once a writer queues up.
type RWMutex struct {
	mu   sync.RWMutex
	name string
}

// SetName assigns the lock's class for order tracking. Call once, during
// construction, before the lock is shared.
func (m *RWMutex) SetName(name string) { m.name = name }

func (m *RWMutex) Lock() {
	if m.name != "" {
		beforeAcquire(m, m.name)
	}
	m.mu.Lock()
	if m.name != "" {
		afterAcquire(m, m.name)
	}
}

func (m *RWMutex) Unlock() {
	if m.name != "" {
		beforeRelease(m)
	}
	m.mu.Unlock()
}

func (m *RWMutex) RLock() {
	if m.name != "" {
		beforeAcquire(m, m.name)
	}
	m.mu.RLock()
	if m.name != "" {
		afterAcquire(m, m.name)
	}
}

func (m *RWMutex) RUnlock() {
	if m.name != "" {
		beforeRelease(m)
	}
	m.mu.RUnlock()
}

func (m *RWMutex) TryLock() bool {
	ok := m.mu.TryLock()
	if ok && m.name != "" {
		afterAcquire(m, m.name)
	}
	return ok
}

// Inversions returns the lock-order inversions observed so far.
func Inversions() []Inversion {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	out := make([]Inversion, len(registry.inversions))
	copy(out, registry.inversions)
	return out
}
