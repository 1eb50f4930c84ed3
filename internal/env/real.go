package env

import (
	"math/rand"
	"sync"
	"time"

	"tell/internal/trace"
)

// realEnv is the production environment: activities are goroutines, Sleep is
// time.Sleep, Work is free, queues and futures are channel/condvar based.
type realEnv struct {
	start time.Time
	tr    *trace.Recorder
	mu    sync.Mutex
	rng   *rand.Rand
}

// NewReal returns an environment backed by real goroutines and wall-clock
// time. seed initializes the (mutex-protected) random source.
func NewReal(seed int64) Full {
	return &realEnv{start: time.Now(), rng: rand.New(rand.NewSource(seed))}
}

func (e *realEnv) SetTracer(r *trace.Recorder) { e.tr = r }
func (e *realEnv) Tracer() *trace.Recorder     { return e.tr }

func (e *realEnv) Now() time.Duration { return time.Since(e.start) }

func (e *realEnv) NewNode(name string, _ int) Node {
	return &realNode{env: e, name: name}
}

func (e *realEnv) NewQueue() Queue   { return newRealQueue() }
func (e *realEnv) NewFuture() Future { return newRealFuture() }

type realNode struct {
	env  *realEnv
	name string
}

func (n *realNode) Name() string { return n.name }

func (n *realNode) Go(name string, fn func(ctx Ctx)) {
	go fn(&realCtx{node: n, sc: trace.Scope{R: n.env.tr}})
}

// DetachedCtx returns an execution context for synchronous calls into the
// engine from arbitrary goroutines. Only the real environment supports
// this (ok=false for simulated nodes, whose activities must be spawned
// with Node.Go so the kernel can schedule them).
func DetachedCtx(n Node) (Ctx, bool) {
	if rn, ok := n.(*realNode); ok {
		return &realCtx{node: rn, sc: trace.Scope{R: rn.env.tr}}, true
	}
	return nil, false
}

type realCtx struct {
	node *realNode
	sc   trace.Scope
}

func (c *realCtx) Node() Node                     { return c.node }
func (c *realCtx) Now() time.Duration             { return c.node.env.Now() }
func (c *realCtx) Sleep(d time.Duration)          { time.Sleep(d) }
func (c *realCtx) Work(time.Duration)             {}
func (c *realCtx) Trace() *trace.Scope            { return &c.sc }
func (c *realCtx) Go(name string, fn func(c Ctx)) { c.node.Go(name, fn) }

func (c *realCtx) Rand() *rand.Rand {
	// The shared env source is not safe for concurrent use; derive a
	// private per-call source from it under the lock.
	e := c.node.env
	e.mu.Lock()
	seed := e.rng.Int63()
	e.mu.Unlock()
	return rand.New(rand.NewSource(seed))
}

// realQueue is an unbounded FIFO built on a condition variable.
type realQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []any
	head   int
	closed bool
}

func newRealQueue() *realQueue {
	q := &realQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *realQueue) Put(v any) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.buf = append(q.buf, v)
	q.cond.Signal()
}

func (q *realQueue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

func (q *realQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buf) - q.head
}

func (q *realQueue) pop() (any, bool) {
	if q.head < len(q.buf) {
		v := q.buf[q.head]
		q.buf[q.head] = nil
		q.head++
		if q.head == len(q.buf) {
			q.buf, q.head = q.buf[:0], 0
		}
		return v, true
	}
	return nil, false
}

func (q *realQueue) Get(ctx Ctx) (any, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if v, ok := q.pop(); ok {
			return v, true
		}
		if q.closed {
			return nil, false
		}
		q.cond.Wait()
	}
}

func (q *realQueue) TryGet() (any, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pop()
}

func (q *realQueue) GetTimeout(ctx Ctx, d time.Duration) (any, bool, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if v, ok := q.pop(); ok {
		return v, true, false
	}
	// sync.Cond has no timed wait: a timer wakes every waiter at the
	// deadline, and a waiter whose own deadline has not passed waits again.
	deadline := time.Now().Add(d)
	t := time.AfterFunc(d, func() {
		q.mu.Lock()
		q.cond.Broadcast()
		q.mu.Unlock()
	})
	defer t.Stop()
	for {
		if q.closed {
			return nil, false, false
		}
		if !time.Now().Before(deadline) {
			return nil, false, true
		}
		q.cond.Wait()
		if v, ok := q.pop(); ok {
			return v, true, false
		}
	}
}

// realFuture is a write-once value on a channel.
type realFuture struct {
	done chan struct{}
	mu   sync.Mutex
	val  any
	set  bool
}

func newRealFuture() *realFuture { return &realFuture{done: make(chan struct{})} }

func (f *realFuture) Set(v any) {
	f.mu.Lock()
	if f.set {
		f.mu.Unlock()
		panic("env: Future set twice")
	}
	f.val = v
	f.set = true
	f.mu.Unlock()
	close(f.done)
}

func (f *realFuture) IsSet() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.set
}

func (f *realFuture) Get(ctx Ctx) any {
	<-f.done
	return f.val
}

func (f *realFuture) GetTimeout(ctx Ctx, d time.Duration) (any, bool) {
	select {
	case <-f.done:
		return f.val, true
	case <-time.After(d):
		return nil, false
	}
}
