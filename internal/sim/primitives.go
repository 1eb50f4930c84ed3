package sim

import "time"

// waiter is a process parked on a synchronization primitive, together with
// the slot the primitive delivers its result into.
type waiter struct {
	p        *Proc
	val      any
	ok       bool
	done     bool // delivered or timed out; skip on later delivery attempts
	timedOut bool
	unit     int // resource unit handed over by a releasing process
}

// wakeNow schedules w's process to resume at the current virtual time.
func (k *Kernel) wakeNow(w *waiter) { k.schedule(k.now, w.p, nil) }

// Queue is an unbounded FIFO queue usable across simulated processes.
// Put never blocks and may be called from kernel callbacks; Get blocks the
// calling process until a value or close arrives.
type Queue struct {
	k       *Kernel
	buf     []any
	head    int
	waiters []*waiter
	closed  bool
}

// NewQueue returns an empty queue bound to kernel k.
func NewQueue(k *Kernel) *Queue { return &Queue{k: k} }

// Len returns the number of buffered values.
func (q *Queue) Len() int { return len(q.buf) - q.head }

// Put appends v to the queue, waking one waiting process if any.
func (q *Queue) Put(v any) {
	if q.closed {
		return
	}
	for len(q.waiters) > 0 {
		w := q.waiters[0]
		q.waiters = q.waiters[1:]
		if w.done {
			continue
		}
		w.val, w.ok, w.done = v, true, true
		q.k.wakeNow(w)
		return
	}
	q.buf = append(q.buf, v)
}

// Close releases all waiting processes with ok=false. Further Puts are
// dropped and further Gets return immediately.
func (q *Queue) Close() {
	if q.closed {
		return
	}
	q.closed = true
	for _, w := range q.waiters {
		if !w.done {
			w.done = true
			q.k.wakeNow(w)
		}
	}
	q.waiters = nil
}

func (q *Queue) pop() (any, bool) {
	if q.head < len(q.buf) {
		v := q.buf[q.head]
		q.buf[q.head] = nil
		q.head++
		if q.head == len(q.buf) {
			q.buf = q.buf[:0]
			q.head = 0
		}
		return v, true
	}
	return nil, false
}

// Get blocks p until a value is available. ok is false if the queue closed.
func (q *Queue) Get(p *Proc) (v any, ok bool) {
	if v, ok := q.pop(); ok {
		return v, true
	}
	if q.closed {
		return nil, false
	}
	w := &waiter{p: p}
	q.waiters = append(q.waiters, w)
	p.block()
	return w.val, w.ok
}

// GetTimeout is like Get but gives up after d of virtual time.
func (q *Queue) GetTimeout(p *Proc, d time.Duration) (v any, ok, timedOut bool) {
	if v, ok := q.pop(); ok {
		return v, true, false
	}
	if q.closed {
		return nil, false, false
	}
	w := &waiter{p: p}
	q.waiters = append(q.waiters, w)
	q.k.After(d, func() {
		if !w.done {
			w.done, w.timedOut = true, true
			q.k.wakeNow(w)
		}
	})
	p.block()
	return w.val, w.ok, w.timedOut
}

// Future is a write-once value that any number of processes can wait on.
type Future struct {
	k       *Kernel
	set     bool
	val     any
	waiters []*waiter
}

// NewFuture returns an unset future bound to kernel k.
func NewFuture(k *Kernel) *Future { return &Future{k: k} }

// IsSet reports whether the future has a value.
func (f *Future) IsSet() bool { return f.set }

// Set stores v and wakes all waiters. Setting twice panics: a future is the
// reply slot of exactly one request.
func (f *Future) Set(v any) {
	if f.set {
		panic("sim: Future set twice")
	}
	f.set = true
	f.val = v
	for _, w := range f.waiters {
		if !w.done {
			w.val, w.ok, w.done = v, true, true
			f.k.wakeNow(w)
		}
	}
	f.waiters = nil
}

// Get blocks p until the future is set and returns its value.
func (f *Future) Get(p *Proc) any {
	if f.set {
		return f.val
	}
	w := &waiter{p: p}
	f.waiters = append(f.waiters, w)
	p.block()
	return w.val
}

// GetTimeout is like Get but gives up after d of virtual time, returning
// ok=false on timeout.
func (f *Future) GetTimeout(p *Proc, d time.Duration) (v any, ok bool) {
	if f.set {
		return f.val, true
	}
	w := &waiter{p: p}
	f.waiters = append(f.waiters, w)
	f.k.After(d, func() {
		if !w.done {
			w.done, w.timedOut = true, true
			f.k.wakeNow(w)
		}
	})
	p.block()
	return w.val, w.ok
}

// Resource models a pool of identical servers (for example the CPU cores of
// a simulated machine). Acquire blocks until a unit is free; queueing is
// FIFO, which models an OS run queue well enough for throughput studies.
type Resource struct {
	k       *Kernel
	total   int
	inUse   int
	waiters []*waiter
	busy    time.Duration // accumulated busy time across all units
	last    Time          // last accounting instant
	free    []int         // free unit indices (LIFO; unit 0 preferred)

	// OnUse, when set, observes every completed Use interval: unit was
	// busy over [start, end). Tracing hooks per-core run tracks here.
	OnUse func(unit int, start, end Time)
}

// NewResource returns a resource with n units.
func NewResource(k *Kernel, n int) *Resource {
	if n <= 0 {
		panic("sim: resource must have at least one unit")
	}
	r := &Resource{k: k, total: n, free: make([]int, n)}
	for i := range r.free {
		r.free[i] = n - 1 - i
	}
	return r
}

func (r *Resource) account() {
	now := r.k.Now()
	r.busy += time.Duration(r.inUse) * now.Sub(r.last)
	r.last = now
}

// Acquire blocks p until a unit is available and takes it, returning the
// unit's index.
func (r *Resource) Acquire(p *Proc) int {
	if r.inUse < r.total {
		r.account()
		r.inUse++
		u := r.free[len(r.free)-1]
		r.free = r.free[:len(r.free)-1]
		return u
	}
	w := &waiter{p: p}
	r.waiters = append(r.waiters, w)
	p.block()
	// The releasing process transferred its unit to us; inUse unchanged.
	return w.unit
}

// Release returns unit to the pool, handing it to the first waiter if any.
func (r *Resource) Release(unit int) {
	for len(r.waiters) > 0 {
		w := r.waiters[0]
		r.waiters = r.waiters[1:]
		if w.done {
			continue
		}
		w.done = true
		w.unit = unit
		r.k.wakeNow(w)
		return
	}
	r.account()
	r.inUse--
	r.free = append(r.free, unit)
}

// Use occupies one unit for d of virtual time: the canonical way to charge
// CPU work to a simulated machine.
func (r *Resource) Use(p *Proc, d time.Duration) {
	u := r.Acquire(p)
	start := p.Now()
	p.Sleep(d)
	r.Release(u)
	if r.OnUse != nil {
		r.OnUse(u, start, p.Now())
	}
}

// Utilization returns the fraction of total capacity that has been busy
// since the kernel started.
func (r *Resource) Utilization() float64 {
	r.account()
	elapsed := r.k.Now().Duration()
	if elapsed <= 0 {
		return 0
	}
	return float64(r.busy) / float64(elapsed) / float64(r.total)
}
