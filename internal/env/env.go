// Package env abstracts the execution environment of the database: real
// goroutines and wall-clock time for production use, or the deterministic
// discrete-event simulator (internal/sim) for scalability experiments.
//
// All engine code is written against these interfaces. An activity (a
// processing-node worker, a storage-node handler, a commit-manager sync loop)
// runs on a Node and receives a Ctx, through which it sleeps, charges CPU
// work, and blocks on queues and futures. Under the real environment Work is
// free (the actual computation is the work) and Sleep is time.Sleep; under
// the simulated environment Work occupies one of the node's modelled CPU
// cores for the given virtual duration.
package env

import (
	"math/rand"
	"time"

	"tell/internal/trace"
)

// Env creates nodes and tells time.
type Env interface {
	// NewNode registers a machine with the given number of CPU cores.
	NewNode(name string, cores int) Node
	// Now returns the time elapsed since the environment started.
	Now() time.Duration
}

// Node is a machine that can host concurrent activities.
type Node interface {
	// Name returns the node's name.
	Name() string
	// Go starts a new activity on this node.
	Go(name string, fn func(ctx Ctx))
}

// Ctx is the execution context of one running activity. A Ctx is only valid
// within the activity it was handed to; it must not be shared across
// activities.
type Ctx interface {
	// Node returns the node this activity runs on.
	Node() Node
	// Now returns the time elapsed since the environment started.
	Now() time.Duration
	// Sleep suspends the activity for d.
	Sleep(d time.Duration)
	// Work charges d of CPU time on the node's cores. Under the real
	// environment this is a no-op.
	Work(d time.Duration)
	// Go starts a sibling activity on the same node.
	Go(name string, fn func(ctx Ctx))
	// Rand returns the environment's random source. Under simulation it
	// is deterministic per seed.
	Rand() *rand.Rand
	// Trace returns this activity's tracing scope. The pointer is always
	// non-nil and owned by the activity; Scope.R is nil when tracing is
	// disabled (every trace hook is a no-op on a nil recorder, so callers
	// never need to check).
	Trace() *trace.Scope
}

// Tracing is implemented by environments that can carry a trace recorder.
// Both Env implementations in this package do.
type Tracing interface {
	SetTracer(*trace.Recorder)
	Tracer() *trace.Recorder
}

// SetTracer installs r as e's trace recorder. Contexts created after the
// call carry the recorder in their Scope; install before spawning nodes
// and activities. A no-op for environments without tracing support.
func SetTracer(e Env, r *trace.Recorder) {
	if t, ok := e.(Tracing); ok {
		t.SetTracer(r)
	}
}

// Tracer returns e's trace recorder, or nil if none is installed.
func Tracer(e Env) *trace.Recorder {
	if t, ok := e.(Tracing); ok {
		return t.Tracer()
	}
	return nil
}

// Queue is an unbounded FIFO usable across activities. Put never blocks.
type Queue interface {
	Put(v any)
	// Get blocks until a value is available; ok is false once the queue
	// is closed and drained.
	Get(ctx Ctx) (v any, ok bool)
	// GetTimeout is like Get but gives up after d.
	GetTimeout(ctx Ctx, d time.Duration) (v any, ok, timedOut bool)
	// TryGet takes the head value if there is one and never blocks or
	// yields. Draining with TryGet is the only safe way for one of several
	// consumers to take "what is already queued": between a Len and a Get
	// a peer may empty the queue and leave the Get blocked.
	TryGet() (v any, ok bool)
	Close()
	Len() int
}

// Future is a write-once value any number of activities can wait on.
type Future interface {
	Set(v any)
	Get(ctx Ctx) any
	// GetTimeout returns ok=false if d elapses before Set.
	GetTimeout(ctx Ctx, d time.Duration) (v any, ok bool)
	IsSet() bool
}

// Factory creates synchronization primitives bound to an environment.
// Both Env implementations in this package also implement Factory.
type Factory interface {
	NewQueue() Queue
	NewFuture() Future
}

// Full is the combination every component constructor takes.
type Full interface {
	Env
	Factory
}

// Locker is a mutual-exclusion lock that is safe to hold across blocking
// environment operations (Sleep, Queue.Get, RPCs). A sync.Mutex must never
// be held across those — under the simulator the kernel would wait forever
// for the parked process — so any critical section that blocks uses this
// token-queue lock instead.
type Locker struct {
	q Queue
}

// NewLocker creates an unlocked Locker.
func NewLocker(f Factory) *Locker {
	l := &Locker{q: f.NewQueue()}
	l.q.Put(struct{}{})
	return l
}

// Lock blocks the calling activity until the lock is available.
func (l *Locker) Lock(ctx Ctx) { l.q.Get(ctx) }

// Unlock releases the lock.
func (l *Locker) Unlock() { l.q.Put(struct{}{}) }
