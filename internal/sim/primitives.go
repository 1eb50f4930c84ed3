package sim

import "time"

// waiter is the one wait a process can be in: a process blocks on at most one
// primitive at a time, so the slot a primitive delivers into lives in the
// Proc and blocking allocates nothing. The primitive links the Proc into its
// list of waiters, park blocks, and whoever ends the wait — a delivery or the
// expiry of the wait's timer — unlinks the Proc first. A Proc is therefore
// never on a list it is not currently parked on, which is what keeps a late
// Put or Set from waking it out of an unrelated wait.
type waiter struct {
	parked   bool     // linked into a primitive and not yet delivered to
	on       waitList // where to unlink from on expiry (bounded waits only)
	val      any
	ok       bool
	timedOut bool
	unit     int // resource unit handed over by a releasing process
}

// waitList is a primitive a bounded wait can be abandoned on.
type waitList interface {
	unlink(p *Proc)
}

// park blocks p, which the caller has linked into a primitive, until that
// primitive delivers, and returns what it delivered.
func (p *Proc) park() waiter {
	p.w.parked = true
	p.block()
	w := p.w
	p.w = waiter{}
	return w
}

// parkTimeout is park bounded by d: if nothing is delivered first, the
// kernel unlinks p from on and wakes it with timedOut set. A wait that was
// satisfied takes its timer out of the heap, so that pending events stay in
// proportion to pending work.
func (p *Proc) parkTimeout(on waitList, d time.Duration) waiter {
	k := p.k
	e := k.schedule(k.now.Add(d))
	e.proc, e.expire = p, true
	t := timer{e, e.seq}
	p.w.on = on
	w := p.park()
	if !w.timedOut {
		// With the value and the deadline at the same instant the timer has
		// already fired, between the delivery and this wake-up, and its slot
		// may be serving another event; cancel checks.
		k.cancel(t)
	}
	return w
}

// expire ends p's bounded wait, unless a delivery at this same instant
// already has.
func (p *Proc) expire() {
	if !p.w.parked {
		return
	}
	p.w.on.unlink(p)
	p.w.parked, p.w.timedOut = false, true
	p.k.wakeNow(p)
}

// deliver ends p's wait with a value; the caller has unlinked p.
func (p *Proc) deliver(v any, ok bool) {
	p.w.val, p.w.ok, p.w.parked = v, ok, false
	p.k.wakeNow(p)
}

// procQueue is a FIFO of waiting processes in a ring buffer: push and pop
// are O(1) and, once the ring has grown to the largest backlog seen, free of
// allocation.
type procQueue struct {
	ring    []*Proc // len is zero or a power of two
	head, n int
}

func (q *procQueue) push(p *Proc) {
	if q.n == len(q.ring) {
		grown := make([]*Proc, max(4, 2*len(q.ring)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.at(i)
		}
		q.ring, q.head = grown, 0
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = p
	q.n++
}

func (q *procQueue) at(i int) *Proc { return q.ring[(q.head+i)&(len(q.ring)-1)] }

// pop returns the longest-waiting process, or nil.
func (q *procQueue) pop() *Proc {
	if q.n == 0 {
		return nil
	}
	p := q.ring[q.head]
	q.ring[q.head] = nil
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	return p
}

// remove takes p out, keeping the others in order.
func (q *procQueue) remove(p *Proc) {
	mask := len(q.ring) - 1
	for i := 0; i < q.n; i++ {
		if q.at(i) != p {
			continue
		}
		for ; i < q.n-1; i++ {
			q.ring[(q.head+i)&mask] = q.at(i + 1)
		}
		q.ring[(q.head+i)&mask] = nil
		q.n--
		return
	}
}

// Queue is an unbounded FIFO queue usable across simulated processes.
// Put never blocks and may be called from kernel callbacks; Get blocks the
// calling process until a value or close arrives.
type Queue struct {
	buf     []any
	head    int
	waiters procQueue
	closed  bool
}

// NewQueue returns an empty queue. Like a Future, a queue reaches the kernel
// through the processes that wait on it.
func NewQueue(*Kernel) *Queue { return new(Queue) }

// Len returns the number of buffered values.
func (q *Queue) Len() int { return len(q.buf) - q.head }

// Put appends v to the queue, waking one waiting process if any.
func (q *Queue) Put(v any) {
	if q.closed {
		return
	}
	if p := q.waiters.pop(); p != nil {
		p.deliver(v, true)
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
	for p := q.waiters.pop(); p != nil; p = q.waiters.pop() {
		p.deliver(nil, false)
	}
}

func (q *Queue) unlink(p *Proc) { q.waiters.remove(p) }

// TryGet takes the head value without blocking: it pops exactly what Get
// would on a non-empty queue, and the clock cannot move.
func (q *Queue) TryGet() (v any, ok bool) { return q.pop() }

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
	q.waiters.push(p)
	w := p.park()
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
	q.waiters.push(p)
	w := p.parkTimeout(q, d)
	return w.val, w.ok, w.timedOut
}

// Future is a write-once value that any number of processes can wait on.
// The zero Future is unset and ready to use, so a struct that owns a reply
// slot can hold one by value.
type Future struct {
	set   bool
	val   any
	first *Proc   // the longest-waiting process; almost every future has just one
	more  []*Proc // those that arrived while first was waiting, in order
}

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
	if f.first != nil {
		f.first.deliver(v, true)
	}
	for _, p := range f.more {
		p.deliver(v, true)
	}
	f.first, f.more = nil, nil
}

func (f *Future) link(p *Proc) {
	if f.first == nil {
		f.first = p
	} else {
		f.more = append(f.more, p)
	}
}

func (f *Future) unlink(p *Proc) {
	if f.first == p {
		f.first = nil
		if len(f.more) > 0 {
			f.first, f.more = f.more[0], f.more[1:]
		}
		return
	}
	for i, o := range f.more {
		if o == p {
			f.more = append(f.more[:i], f.more[i+1:]...)
			return
		}
	}
}

// Get blocks p until the future is set and returns its value.
func (f *Future) Get(p *Proc) any {
	if f.set {
		return f.val
	}
	f.link(p)
	return p.park().val
}

// GetTimeout is like Get but gives up after d of virtual time, returning
// ok=false on timeout.
func (f *Future) GetTimeout(p *Proc, d time.Duration) (v any, ok bool) {
	if f.set {
		return f.val, true
	}
	f.link(p)
	w := p.parkTimeout(f, d)
	return w.val, w.ok
}

// Resource models a pool of identical servers (for example the CPU cores of
// a simulated machine). Acquire blocks until a unit is free; queueing is
// FIFO, which models an OS run queue well enough for throughput studies.
type Resource struct {
	k       *Kernel
	total   int
	inUse   int
	waiters procQueue
	free    []int // free unit indices (LIFO; unit 0 preferred)

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

// Acquire blocks p until a unit is available and takes it, returning the
// unit's index.
func (r *Resource) Acquire(p *Proc) int {
	if r.inUse < r.total {
		r.inUse++
		u := r.free[len(r.free)-1]
		r.free = r.free[:len(r.free)-1]
		return u
	}
	r.waiters.push(p)
	// The releasing process transfers its unit to us; inUse unchanged.
	return p.park().unit
}

// Release returns unit to the pool, handing it to the first waiter if any.
func (r *Resource) Release(unit int) {
	if p := r.waiters.pop(); p != nil {
		p.w.unit, p.w.parked = unit, false
		r.k.wakeNow(p)
		return
	}
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
