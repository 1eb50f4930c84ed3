// Package sim implements a deterministic discrete-event simulator.
//
// The simulator is the substrate for all scalability experiments in this
// repository: the paper's evaluation ran on a 12-server InfiniBand cluster,
// which we reproduce as a virtual cluster whose nodes, CPU cores and network
// links are simulated resources. The database code itself executes for real;
// only time is virtual.
//
// Processes are ordinary goroutines scheduled cooperatively with strict
// hand-off: exactly one process runs at any instant, and control returns to
// the kernel whenever a process blocks on a simulated primitive (Sleep,
// Queue.Get, Resource.Acquire, Future.Get). This makes simulations fully
// deterministic — a given seed and program always produce the same event
// order — and lets a single host core simulate an arbitrarily large cluster.
package sim

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"time"
)

// Time is a point in virtual time, expressed as nanoseconds since the start
// of the simulation.
type Time int64

// Add returns the time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between t and earlier time u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts t to the duration elapsed since the simulation started.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// event is a scheduled occurrence. Events with equal times fire in
// scheduling order (seq). What fires is the one payload that is set: a
// process wake-up (proc), the expiry of a process's bounded wait (proc with
// expire) or a kernel callback (fire), which runs inline and must not block.
//
// Events belong to the kernel: schedule takes one off the free list, firing
// or cancelling puts it back, and nothing else keeps a pointer to one except
// through a timer handle.
type event struct {
	at     Time
	seq    uint64 // scheduling order; 0 while the event is on the free list
	idx    int    // position in Kernel.events
	proc   *Proc
	expire bool
	fire   Firer
}

// before is the firing order: time, then scheduling order.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// timer is a handle to a scheduled event: the slot it occupies and the seq it
// was given. Once the event has fired its slot carries another seq (zero on
// the free list, a later one when reused), which is how cancel tells.
type timer struct {
	e   *event
	seq uint64
}

// Firer is a kernel callback that is a value the caller already holds (a
// simulated message in flight, say) and so costs no closure to schedule.
type Firer interface {
	Fire()
}

type firerFunc func()

func (f firerFunc) Fire() { f() }

// Runner is the body of a process. Callers that spawn at a high rate
// implement it on a value they already hold so that a spawn allocates
// nothing.
type Runner interface {
	Run(p *Proc)
}

// yieldKind reports why a process handed control back to the kernel.
type yieldKind int

const (
	yieldBlocked yieldKind = iota // process is waiting on an event
	yieldDone                     // process function returned; the goroutine parks for reuse
	yieldExit                     // the goroutine is ending: killed, or left through runtime.Goexit
	yieldPanic                    // process function panicked; the goroutine is ending
)

type yieldMsg struct {
	kind yieldKind
	err  error
}

// Kernel is a discrete-event simulation instance. It is not safe for
// concurrent use; all interaction happens from the goroutine that calls Run
// and from the processes the kernel itself schedules.
//
// Exactly one of those goroutines runs at a time, so the kernel's free lists
// are plain slices: finished events go to free and are taken by the next
// schedule; a process whose function returned parks its goroutine, channel
// and Proc on idle and the next spawn takes it. Neither list can grow past
// the peak number of simultaneously scheduled events or live processes, and
// Shutdown drops both.
type Kernel struct {
	now     Time
	seq     uint64
	events  []*event // binary min-heap on (at, seq)
	free    []*event
	rng     *rand.Rand
	yield   chan yieldMsg
	procs   []*Proc // live (running or blocked) processes; Proc.slot indexes it
	idle    []*Proc // parked goroutines waiting for the next spawn
	stopped bool
	err     error
}

// ErrKilled is the panic value delivered to processes that are still blocked
// when the kernel shuts down. The kernel recovers it silently.
var ErrKilled = fmt.Errorf("sim: process killed at shutdown")

// NewKernel returns a kernel whose random source is seeded with seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{
		rng:   rand.New(rand.NewSource(seed)),
		yield: make(chan yieldMsg),
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Procs returns the number of live (running or blocked) processes.
func (k *Kernel) Procs() int { return len(k.procs) }

// Pending returns the number of scheduled events. It tracks pending work —
// sleeping processes, messages in flight, waits that can still time out —
// and not how much work there has been.
func (k *Kernel) Pending() int { return len(k.events) }

// Parked returns the number of finished processes whose goroutines wait to
// be reused; at most the peak of Procs.
func (k *Kernel) Parked() int { return len(k.idle) }

// schedule queues an event for time at (now, if at is in the past) and
// returns it for the caller to set its payload.
func (k *Kernel) schedule(at Time) *event {
	if at < k.now {
		at = k.now
	}
	var e *event
	if n := len(k.free); n > 0 {
		e, k.free = k.free[n-1], k.free[:n-1]
	} else {
		e = new(event)
	}
	k.seq++
	e.at, e.seq, e.idx = at, k.seq, len(k.events)
	k.events = append(k.events, e)
	k.up(e.idx)
	return e
}

// cancel removes the event t refers to, unless it has already fired.
func (k *Kernel) cancel(t timer) {
	if t.e.seq == t.seq {
		k.unschedule(t.e)
	}
}

// unschedule takes e out of the heap and puts it on the free list.
func (k *Kernel) unschedule(e *event) {
	h, i, n := k.events, e.idx, len(k.events)-1
	last := h[n]
	h[n] = nil
	k.events = h[:n]
	if i < n {
		h[i], last.idx = last, i
		k.down(i)
		if last.idx == i {
			k.up(i)
		}
	}
	*e = event{}
	k.free = append(k.free, e)
}

// up restores the heap after the event at position i moved earlier.
func (k *Kernel) up(i int) {
	h := k.events
	e := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].idx = i
		i = parent
	}
	h[i], e.idx = e, i
}

// down restores the heap after the event at position i moved later.
func (k *Kernel) down(i int) {
	h := k.events
	e := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(e) {
			break
		}
		h[i] = h[c]
		h[i].idx = i
		i = c
	}
	h[i], e.idx = e, i
}

// After schedules fn to run at the current time plus d. fn executes on the
// kernel goroutine and must not block on simulated primitives; it may wake
// processes, put to queues, set futures, or schedule further callbacks.
func (k *Kernel) After(d time.Duration, fn func()) { k.AfterFire(d, firerFunc(fn)) }

// AfterFire schedules f.Fire to run at the current time plus d, under the
// rules of After.
func (k *Kernel) AfterFire(d time.Duration, f Firer) {
	k.schedule(k.now.Add(d)).fire = f
}

// wakeNow schedules p to resume at the current virtual time.
func (k *Kernel) wakeNow(p *Proc) { k.schedule(k.now).proc = p }

// Spawn starts a process running r at the current virtual time. The process
// is named scope/name (name alone when scope is empty); the two parts are
// only joined when somebody asks.
func (k *Kernel) Spawn(scope, name string, r Runner) *Proc {
	var p *Proc
	if n := len(k.idle); n > 0 {
		p, k.idle[n-1] = k.idle[n-1], nil
		k.idle = k.idle[:n-1]
	} else {
		p = &Proc{k: k, wake: make(chan wakeMsg)}
		go p.loop()
	}
	p.scope, p.name, p.run = scope, name, r
	p.slot = len(k.procs)
	k.procs = append(k.procs, p)
	k.wakeNow(p)
	return p
}

// retire takes p off the list of live processes and lets go of its body.
func (k *Kernel) retire(p *Proc) {
	n := len(k.procs) - 1
	last := k.procs[n]
	k.procs[p.slot], last.slot = last, p.slot
	k.procs[n] = nil
	k.procs = k.procs[:n]
	p.run = nil
}

// dispatch resumes process p and waits for it to block or finish.
func (k *Kernel) dispatch(p *Proc) {
	p.wake <- wakeMsg{}
	m := <-k.yield
	if m.kind == yieldBlocked {
		return
	}
	k.retire(p)
	switch m.kind {
	case yieldDone:
		k.idle = append(k.idle, p)
	case yieldPanic:
		if k.err == nil {
			k.err = m.err
		}
		k.stopped = true
	}
}

// Stop halts the simulation: Run returns after the current event completes.
func (k *Kernel) Stop() { k.stopped = true }

// maxTime is the sentinel deadline meaning "run until the queue drains".
const maxTime = Time(1<<62 - 1)

// Run executes events until the event queue is empty, Stop is called, or a
// process panics. It returns the first process panic, if any.
func (k *Kernel) Run() error { return k.RunUntil(maxTime) }

// RunUntil executes events with timestamps at or before deadline. When it
// returns, virtual time equals the deadline (unless the event queue drained
// or the kernel stopped first).
func (k *Kernel) RunUntil(deadline Time) error {
	for !k.stopped {
		if len(k.events) == 0 {
			// Queue drained: idle until the deadline.
			if deadline != maxTime && deadline > k.now {
				k.now = deadline
			}
			break
		}
		if k.events[0].at > deadline {
			// Stays queued for a later Run call.
			k.now = deadline
			break
		}
		// The slot is free before its payload runs, so whatever that
		// schedules may reuse it.
		e := *k.events[0]
		k.unschedule(k.events[0])
		k.now = e.at
		switch {
		case e.expire:
			e.proc.expire()
		case e.proc != nil:
			k.dispatch(e.proc)
		default:
			e.fire.Fire()
		}
	}
	return k.err
}

// Shutdown terminates all still-blocked processes and all parked goroutines
// so that they exit, and drops the kernel's free lists. It must be called
// after Run returns; the kernel is unusable afterwards.
func (k *Kernel) Shutdown() {
	k.stopped = true
	// A dying process's deferred calls may spawn; those die in turn.
	for len(k.procs) > 0 {
		p := k.procs[len(k.procs)-1]
		k.kill(p)
		k.retire(p)
	}
	for _, p := range k.idle {
		k.kill(p)
	}
	k.idle, k.events, k.free = nil, nil, nil
}

// kill ends p's goroutine, which is blocked in a wait or parked.
func (k *Kernel) kill(p *Proc) {
	p.wake <- wakeMsg{kill: true}
	<-k.yield
}

type wakeMsg struct{ kill bool }

// Proc is a handle to a simulated process. All methods must be called from
// within the process's own function; the handle is not valid after that
// function returns, because the kernel reuses it for a later spawn.
type Proc struct {
	k           *Kernel
	scope, name string
	wake        chan wakeMsg
	run         Runner
	slot        int    // index in Kernel.procs while live
	w           waiter // the process's one wait; see primitives.go
}

// Name returns the name given at spawn time.
func (p *Proc) Name() string {
	if p.scope == "" {
		return p.name
	}
	return p.scope + "/" + p.name
}

// Kernel returns the kernel this process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// loop is a process goroutine: it runs one process function per spawn and
// parks in between, until it is killed or a function leaves other than by
// returning.
func (p *Proc) loop() {
	for p.runOnce() {
	}
}

// runOnce waits for the dispatch that starts the process, runs its function
// and tells the kernel how it ended. Only a goroutine whose function returned
// may serve another process: after a panic or runtime.Goexit the stack has
// unwound through frames the kernel does not own.
func (p *Proc) runOnce() (returned bool) {
	k := p.k
	if m := <-p.wake; m.kill {
		k.yield <- yieldMsg{kind: yieldExit}
		return false
	}
	defer func() {
		if returned {
			k.yield <- yieldMsg{kind: yieldDone}
			return
		}
		// recover is nil for runtime.Goexit (a test's t.Fatal inside a
		// process).
		r := recover()
		if r == nil || r == ErrKilled {
			k.yield <- yieldMsg{kind: yieldExit}
			return
		}
		k.yield <- yieldMsg{
			kind: yieldPanic,
			err:  fmt.Errorf("sim: process %q panicked: %v\n%s", p.Name(), r, debug.Stack()),
		}
	}()
	p.run.Run(p)
	return true
}

// block hands control to the kernel until another event resumes p.
func (p *Proc) block() {
	p.k.yield <- yieldMsg{kind: yieldBlocked}
	if m := <-p.wake; m.kill {
		panic(ErrKilled)
	}
}

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	if d <= 0 {
		// Yield anyway so zero-duration sleeps still provide a scheduling
		// point, mirroring runtime.Gosched.
		d = 0
	}
	p.k.schedule(p.k.now.Add(d)).proc = p
	p.block()
}
